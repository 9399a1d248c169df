#!/usr/bin/env sh
# CI gate for the predecoded fast-path engine (DESIGN.md §11):
#
#   reference_ns / predecoded_ns >= INC_VM_SPEEDUP_MIN  (1.5x)
#
# The local acceptance target is 2x.
#
# Runs bench/vm_speedup under both engines interleaved for several
# rounds, keeps each variant's best ns/instr, and fails when the ratio
# falls below the gate.
#
# Usage: bench/check_vm_speedup.sh BUILD_DIR
# Env:   INC_VM_SPEEDUP_MIN   gate ratio (default 1.5)
#        INC_VM_BENCH_ROUNDS  interleaved rounds (default 3)
#        INC_VM_BENCH_INSTRUCTIONS / INC_VM_BENCH_REPS are forwarded
#        to the binary.
set -eu

build_dir="${1:?usage: check_vm_speedup.sh BUILD_DIR}"
min_ratio="${INC_VM_SPEEDUP_MIN:-1.5}"
rounds="${INC_VM_BENCH_ROUNDS:-3}"

bin="$build_dir/bench/vm_speedup"
[ -x "$bin" ] || { echo "missing $bin (build the bench targets)"; exit 2; }

extract() {
    sed -n 's/.*best_ns_per_instr=\([0-9.]*\).*/\1/p'
}

best_ref=""
best_pre=""
i=0
while [ "$i" -lt "$rounds" ]; do
    # Interleave the variants so slow-machine noise (thermal drift, a
    # neighbor CI job) hits both sides, not just one.
    r=$("$bin" reference | tee /dev/stderr | extract)
    p=$("$bin" predecoded | tee /dev/stderr | extract)
    best_ref=$(awk -v a="${best_ref:-$r}" -v b="$r" \
        'BEGIN { print (b < a) ? b : a }')
    best_pre=$(awk -v a="${best_pre:-$p}" -v b="$p" \
        'BEGIN { print (b < a) ? b : a }')
    i=$((i + 1))
done

awk -v ref="$best_ref" -v pre="$best_pre" -v min="$min_ratio" '
BEGIN {
    ratio = ref / pre
    printf "vm speedup: predecoded %.2fx (gate %sx)  [reference %.4f, " \
           "predecoded %.4f ns/instr]\n", ratio, min, ref, pre
    if (ratio < min + 0.0) {
        print "FAIL: predecoded speedup below the gate" > "/dev/stderr"
        exit 1
    }
    print "OK"
}'
