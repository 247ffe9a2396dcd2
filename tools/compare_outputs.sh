#!/usr/bin/env bash
# Compare what the CLI writes and prints in this working tree against a git ref.
#
#   tools/compare_outputs.sh <git-ref>
#
# The ref's src/ and configs/ are exported with `git archive` into a
# temporary directory, and the working tree's are copied next to them, so
# nothing is written into the repository or its git metadata. Both trees
# run the same commands from their own directory, with the same relative
# output paths: `train` on the clean, noise40 and imbalance20 configs (all
# seeds and plots, each config's baselines plus the ramp and step rules, so
# every fixed rule runs with and without normalization), `gen-data --seed 1`
# on noise40 and imbalance20, `report` on a copy of noise40's seed_1,
# `probe --steps 1000` on its weighting net, `gradcheck --instances 4`, and
# every failing input of tests/test_fault_messages.py. The output trees, stdout, stderr and exit
# codes are then diffed. Each command is stopped after 300 s and then logs
# exit code 124, so a hang in either tree shows up as a difference instead
# of stalling the script. Each difference is printed: a file that both trees
# hold is shown with `diff`, unless both sides parse as JSON to the same value
# (see same_json), when its name is printed beside "same JSON value"; such a
# file still counts as a difference. Then each tree's line
# count of src/metaweight/*.py (as `wc -l` totals it) beside its code lines,
# docstring lines and comment-only lines (counted with `ast` and `tokenize`,
# see count_lines), then the name of each module whose code differs from the
# ref's: whose `ast` tree, with every module, class and function docstring
# removed, is not the ref's (or that only one tree has). A change to
# docstrings and comments alone lists no module. The exit status is 1 if
# there is any difference in outputs, else 0. The temporary directory is
# removed on exit.
set -euo pipefail

ref=${1:?usage: tools/compare_outputs.sh <git-ref>}
repo=$(git rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || { echo "not a commit: $ref" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export PYTHONDONTWRITEBYTECODE=1

mkdir -p "$tmp/ref" "$tmp/work"
git -C "$repo" archive "$ref" src configs | tar -x -C "$tmp/ref"
cp -r "$repo/src" "$repo/configs" "$tmp/work/"

# run NAME ARGS...: one command in the current tree, stopped after 300 s;
# its stdout, stderr and exit code go to logs/NAME.{out,err,code}.
run() {
    local name=$1 code
    shift
    PYTHONPATH=src timeout 300 python3 -m metaweight "$@" >"logs/$name.out" 2>"logs/$name.err" && code=0 || code=$?
    echo "$code" >"logs/$name.code"
}

for side in ref work; do
    echo "running the commands in the $side tree" >&2
    cd "$tmp/$side"
    mkdir -p logs out
    for cfg in clean noise40 imbalance20; do
        run "train_$cfg" train --config "configs/$cfg.json" --out "out/$cfg" --baseline ramp --baseline step
    done
    for cfg in noise40 imbalance20; do
        run "gen_data_$cfg" gen-data --config "configs/$cfg.json" --out "out/$cfg.csv" --seed 1
    done
    if [ -d out/noise40/seed_1 ]; then
        cp -r out/noise40/seed_1 out/report
        run report report out/report
        run probe probe --model out/noise40/seed_1/mwnet.json --out out/probe.csv --steps 1000
    fi
    run gradcheck gradcheck --instances 4
    # The failing inputs are written by this working tree's test module.
    PYTHONPATH="$repo/src" python3 "$repo/tests/test_fault_messages.py" faults >logs/fault_cases.txt
    while IFS=$'\t' read -r -a fields; do
        run "fault_${fields[0]// /_}" "${fields[@]:1}"
    done <logs/fault_cases.txt
done

# same_json A B: succeed if both files parse as JSON to the same value,
# compared as json.dumps writes it with sorted keys (so key order alone does
# not count, but -0.0 and 0.0, or 1.0 and 1, stay apart).
same_json() {
    python3 - "$@" <<'PY'
import json, sys


def value(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.dumps(json.load(fh), sort_keys=True)
    except (ValueError, RecursionError):
        sys.exit(1)


sys.exit(value(sys.argv[1]) != value(sys.argv[2]))
PY
}
status=0
for dir in out faults logs; do
    listing=$(diff -rq "$tmp/ref/$dir" "$tmp/work/$dir") || status=1
    while IFS= read -r line; do
        if [[ $line =~ ^Files\ (.*)\ and\ (.*)\ differ$ ]]; then
            a=${BASH_REMATCH[1]} b=${BASH_REMATCH[2]}
            if same_json "$a" "$b"; then
                echo "${a#"$tmp/ref/"}: same JSON value"
            else
                echo "diff $a $b"
                diff "$a" "$b" || true
            fi
        elif [ -n "$line" ]; then
            echo "$line"
        fi
    done <<<"$listing"
done
# Code lines hold a token other than a comment, a line end or an indent
# (tokenize); docstring lines are those of a module, class or function
# docstring (ast), and are not code lines; comment-only lines hold a comment
# and neither code nor docstring.
count_lines() {
    python3 - "$@" <<'PY'
import ast, io, sys, tokenize

blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
code = docs = comments = 0
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    doc_lines = set()
    for node in ast.walk(ast.parse(source)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            doc_lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, commented = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            commented.add(tok.start[0])
        elif tok.type not in blank:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    code += len(lines - doc_lines)
    docs += len(doc_lines)
    comments += len(commented - lines - doc_lines)
print(f"{code} code lines, {docs} docstring lines and {comments} comment-only lines")
PY
}
for side in ref work; do
    sources=("$tmp/$side"/src/metaweight/*.py)
    echo "$side: $(cat "${sources[@]}" | wc -l) lines in src/metaweight/*.py, $(count_lines "${sources[@]}")" >&2
done
python3 - "$tmp/ref/src/metaweight" "$tmp/work/src/metaweight" <<'PY' >&2
import ast, os, sys


def code(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:]
    return ast.dump(tree)


names = sorted({n for d in sys.argv[1:] for n in os.listdir(d) if n.endswith(".py")})
changed = [n for n in names if code(os.path.join(sys.argv[1], n)) != code(os.path.join(sys.argv[2], n))]
print(f"modules whose code differs: {', '.join(changed) if changed else 'none'}")
PY
if [ "$status" -eq 0 ]; then
    files=$(find "$tmp/work/out" "$tmp/work/faults" -type f | wc -l)
    echo "identical: $files files and $(ls "$tmp/work/logs" | wc -l) logs" >&2
fi
exit "$status"
