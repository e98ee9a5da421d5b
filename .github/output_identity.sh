#!/usr/bin/env bash
# Check that the working tree writes byte-identical outputs to a base commit.
#
#   .github/output_identity.sh <base-sha>
#
# Checks the base commit out into a detached worktree, then runs on both
# sides, with single-threaded BLAS: the six experiments with --svg at
# seeds 0 and 1, and fit, oracle and rates on demos/sample_config.ini at
# seeds 0, 1 and 4. The output files are compared with diff -r; stdout is
# not, because it holds the output path. Exits non-zero on any difference.
# Needs no network. Scratch files go under $TMPDIR (default /tmp).
set -euo pipefail

base=${1:?usage: $0 <base-sha>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base"

export OPENBLAS_NUM_THREADS=1
EXPERIMENTS="path_matching pspline_unpenalized rates_sweep expfam_convergence distreg_divergence gsq_equivalence"

write_outputs() {  # <source tree> <output dir>
    local src=$1 out=$2 seed name cmd
    for seed in 0 1; do
        for name in $EXPERIMENTS; do
            PYTHONPATH="$src/src" python -m amboost.cli experiment "$name" \
                --svg --seed "$seed" --out "$out/exp_s$seed" >/dev/null
        done
    done
    for cmd in fit oracle rates; do
        for seed in 0 1 4; do
            PYTHONPATH="$src/src" python -m amboost.cli "$cmd" \
                --config "$src/demos/sample_config.ini" --seed "$seed" \
                --out "$out/${cmd}_$seed" >/dev/null
        done
    done
}

write_outputs "$work/base" "$work/out_base"
write_outputs "$root" "$work/out_head"
diff -r "$work/out_base" "$work/out_head"
echo "outputs byte-identical to $base ($(find "$work/out_head" -type f | wc -l) files)"
