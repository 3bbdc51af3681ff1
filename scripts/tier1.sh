#!/usr/bin/env bash
# Tier-1 tests on both kernel backends.
#
#   scripts/tier1.sh [pytest args...]
#
# Builds the compiled kernels in place and fails unless they load, then
# runs the tier-1 suite twice: on the compiled backend, and with
# GRIDKNOT_PURE=1 on the pure-Python fallback.  Then it runs the tests of
# the benchmark's corpus generator and checker once, since they drive
# moves.apply and Stabilize.  Last it runs `gridknot verify` at its default
# arguments on the compiled backend for every suite but markov, which
# still fails there: markov_oracle answers UNKNOWN on pairs that the suite
# builds as YES.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python setup.py -q build_ext --inplace
backend=$(python -c 'import gridknot; print(gridknot.KERNEL_BACKEND)')
if [ "$backend" != fast ]; then
    echo "tier1: the compiled kernels did not load (backend: $backend)" >&2
    exit 1
fi

echo "== tier-1, backend fast"
python -m pytest -q --continue-on-collection-errors "$@"
echo "== tier-1, backend pure (GRIDKNOT_PURE=1)"
GRIDKNOT_PURE=1 python -m pytest -q --continue-on-collection-errors "$@"
echo "== benchmark corpus and checker tests (gridbench)"
python -m pytest -q gridbench
for suite in table1 table2 roundtrip bw slcoherence; do
    echo "== gridknot verify --suite $suite (default arguments)"
    python -m gridknot.cli verify --suite "$suite"
done
