#!/usr/bin/env bash
# Tier-1 verify (must match ROADMAP.md): configure, build, run the full
# GoogleTest suite. Exits non-zero on the first failure.
#
# After tier-1, the correctness-tooling stages:
#   - determinism lint   tools/lint_determinism.py over src/ (hash-order
#                        iteration, pointer keys, wall clocks, guard drift)
#   - REACH stage        tools/reach_sweep.py: every libjim function that no
#                        shipped binary (examples, benches, perfbench) keeps,
#                        header-inline ones included, must be an allowlisted
#                        test hook or a named compiler false positive
#                        (tools/reach_sweep_allowlist.txt)
#   - round-trip smoke   jim_cli save → load must transcript-diff clean
#   - OBS stage          observability determinism: parity suites re-run
#                        with JIM_METRICS=1, CLI transcripts diffed with
#                        metrics + tracing on vs off, and the emitted
#                        snapshot checked for engine/exec/storage metrics
#   - TSAN stage         parallel exec + parity suites (the class build's
#                        chunked factor walk at 2 and 4 threads), the
#                        concurrent
#                        metrics-registry test, the session manager
#                        (concurrent sessions on one shared lookahead pool)
#                        and the server's connection handlers (unit suite
#                        and TCP e2e) under -DJIM_SANITIZE=thread,
#                        plus a guard that every tsan.supp suppression still
#                        matches a symbol the instrumented binaries
#                        actually reference
#   - ASAN stage         columnar storage/ingest suites (one-, two- and
#                        three-factor JIMC files), the engine suites
#                        (the factor walk's posting lists and stamps) and
#                        the lookahead pick parity + minimax suite
#                        (LookaheadParity) under address
#   - UBSAN stage        integer-kernel + storage + engine +
#                        checkpoint-codec suites AND the deterministic
#                        fuzz driver (5000
#                        mutated JIMC images / goal strings / request
#                        lines / checkpoint files) under
#                        address+undefined
#                        with every finding fatal (-fno-sanitize-recover);
#                        the suites run the column-block class build at
#                        zero-, one- and two-word mask widths and the
#                        word-lane checksum (and the code-range bound it
#                        keeps) over unaligned buffers
#   - CRASH stage        fault-injection + crash-recovery suites under
#                        address sanitizer: every syscall index during
#                        WriteStore crashed and replayed,
#                        old-XOR-new proven on each reopened image
#   - SERVE stage        the serving daemon under address sanitizer:
#                        protocol/session-manager suites, sessions over a
#                        two-factor JIMC file against the in-memory table
#                        (FactoredInstance), the checkpoint
#                        codec and crash-point enumeration, the 64-session TCP e2e
#                        with kill+restart transcript diffing, plus the
#                        JSON-reader suite, and a
#                        jim_cli serve --stdio smoke against the round-trip
#                        instance
#   - PERFBENCH stage    the serving benchmark package built into
#                        .bench_build/perfbench, its harness gtests, and a
#                        2 s travel-durable smoke run that must report
#                        "correct": true
#   - audit stage        -DJIM_AUDIT_INVARIANTS=ON build running the parity
#                        suites with every engine mutation re-deriving its
#                        CheckInvariants contract
#   - clang-tidy stage   advisory, opt-in via JIM_RUN_CLANG_TIDY=1
#
# Sanitizer stages probe the toolchain first (compile-and-link of a trivial
# program under the flag) and auto-skip with a loud warning when the
# runtime is missing — JIM_SKIP_REACH/TSAN/ASAN/UBSAN/CRASH/AUDIT=1 still
# force-skip.
set -euxo pipefail
cd "$(dirname "$0")"

CXX_BIN="${CXX:-c++}"

# True iff the toolchain can build AND link under the given -fsanitize flag
# (catches both an unsupported flag and a missing libtsan/libasan/libubsan).
sanitizer_available() {
  local flag="$1" probe
  probe="$(mktemp /tmp/jim_san_probe.XXXXXX)"
  if echo 'int main(){return 0;}' | \
      "$CXX_BIN" -fsanitize="$flag" -x c++ - -o "$probe" >/dev/null 2>&1; then
    rm -f "$probe"
    return 0
  fi
  rm -f "$probe"
  return 1
}

warn_skip() {
  echo "WARNING: $1 — skipping the $2 stage" >&2
}

# --- tier-1: full build + full suite -------------------------------------
cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# --- determinism lint ----------------------------------------------------
python3 tools/lint_determinism.py

# --- REACH stage (reachability sweep) -------------------------------------
# Builds the examples, the benches and the perfbench package into
# build-reach/ with one section per function, no inlining, debug info and
# -fkeep-inline-functions (so header-inline code counts too), links them
# with --gc-sections, and fails on any libjim function none of them keeps
# that tools/reach_sweep_allowlist.txt does not list (or on a stale entry).
# Compiler-generated members (DWARF DW_AT_artificial) are never findings;
# an allowlist entry is a test hook or a GCC false positive that names its
# reached caller. A libjim.a without debug info fails the stage.
if [[ "${JIM_SKIP_REACH:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_REACH=1" "REACH"
else
  python3 tools/reach_sweep.py
fi

# --- persistent-storage round-trip smoke ---------------------------------
# Save an instance from CSV, reopen it from the JIMC file, and demand
# byte-identical session transcripts (the save/load notes go to stderr, so
# stdout must diff clean).
smokedir="$(mktemp -d)"
trap 'rm -rf "$smokedir"' EXIT
cat > "$smokedir/flights.csv" <<'EOF'
From,To,Airline,City,Discount
Paris,Lille,AF,Lille,AF
Paris,Lyon,AF,Lyon,AF
Lyon,Paris,WF,Paris,WF
Lille,Nice,WF,Nice,AF
Nice,Paris,AF,Nice,WF
EOF
./build/jim_cli infer "$smokedir/flights.csv" --auto \
  --goal="To=City && Airline=Discount" \
  --save-instance="$smokedir/flights.jimc" > "$smokedir/saved.txt"
./build/jim_cli infer --load-instance="$smokedir/flights.jimc" --auto \
  --goal="To=City && Airline=Discount" > "$smokedir/loaded.txt"
diff "$smokedir/saved.txt" "$smokedir/loaded.txt"

# --- OBS stage (observability determinism) -------------------------------
# The contract src/obs/ ships under: metrics and tracing observe a session,
# they never steer it. Three proofs, all against the tier-1 build:
#   1. the parity suites pass again with the metrics registry hot
#      (JIM_METRICS=1) — transcripts still bitwise-identical at 1/2/8
#      threads;
#   2. a jim_cli run with --metrics-out and --trace produces stdout
#      byte-identical to the plain run (all observability output goes to
#      stderr or the snapshot file);
#   3. the emitted snapshot actually contains engine, exec, and storage
#      metrics for a --load-instance session — instrumentation that
#      silently stops recording is a failure, not a quiet degrade.
if [[ "${JIM_SKIP_OBS:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_OBS=1" "OBS"
else
  (cd build && JIM_METRICS=1 ctest --output-on-failure -j"$(nproc)" \
    -R 'ParallelParity|LookaheadParity|EncodedParity|IncrementalParity|MappedParity|KernelParity|FactorizedParity')
  ./build/jim_cli infer \
    --load-instance="$smokedir/flights.jimc" --auto \
    --goal="To=City && Airline=Discount" \
    --metrics-out="$smokedir/metrics.json" --trace \
    > "$smokedir/observed.txt" 2> "$smokedir/observed.err"
  diff "$smokedir/loaded.txt" "$smokedir/observed.txt"
  # The family prefixes, plus a lookahead and a propagation counter: a
  # lookahead session must record its candidate scans and the classes
  # pruned by label propagation, or the instrumentation went silent.
  for prefix in '"engine.' '"exec.' '"storage.' \
      '"engine.simulate_label_both' '"engine.propagate.pruned_classes'; do
    if ! grep -qF "$prefix" "$smokedir/metrics.json"; then
      echo "ERROR: metrics snapshot is missing ${prefix}* metrics —" \
        "instrumentation went silent" >&2
      exit 1
    fi
  done
  grep -qF '"steps"' "$smokedir/observed.err"
fi

# --- TSAN stage ----------------------------------------------------------
if [[ "${JIM_SKIP_TSAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_TSAN=1" "TSAN"
elif ! sanitizer_available thread; then
  warn_skip "toolchain cannot link -fsanitize=thread (libtsan missing?)" \
    "TSAN"
else
  cmake -B build-tsan -S . -DJIM_SANITIZE=thread -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j"$(nproc)" --target \
    exec_thread_pool_test exec_batch_runner_test \
    core_parallel_parity_test core_lookahead_parity_test core_engine_copy_test \
    core_encoded_parity_test relational_dictionary_test \
    core_tuple_store_test query_query_test query_factorized_parity_test \
    obs_metrics_test \
    serve_session_manager_test serve_server_test serve_server_e2e_test
  # Stale-suppression guard: every race: pattern in tsan.supp must still
  # match a symbol some instrumented test binary references (nm -C), or the
  # suppression is dead weight hiding future real races — remove it.
  nm -C build-tsan/exec_thread_pool_test build-tsan/exec_batch_runner_test \
    > "$smokedir/tsan_symbols.txt" 2>/dev/null
  grep -v '^\s*#' tsan.supp | grep -oE '^race:.*' | sed 's/^race://' | \
  while IFS= read -r pattern; do
    if ! grep -qF "$pattern" "$smokedir/tsan_symbols.txt"; then
      echo "ERROR: tsan.supp suppression '$pattern' matches no symbol in" \
        "the instrumented binaries — stale suppression, remove it" >&2
      exit 1
    fi
  done
  (cd build-tsan && \
    TSAN_OPTIONS="suppressions=$(pwd)/../tsan.supp ${TSAN_OPTIONS:-}" \
    ctest --output-on-failure -j"$(nproc)" \
    -R 'ThreadPool|BatchSessionRunner|ParallelParity|LookaheadParity|EngineCopy|EncodedParity|FactorizedParity|ParallelEncode|ParallelIngest|ParallelScan|UniversalTable|Catalog|MetricsTest|SessionManager|Server')
fi

# --- ASAN stage ----------------------------------------------------------
if [[ "${JIM_SKIP_ASAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_ASAN=1" "ASAN"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "ASAN"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$(nproc)" --target \
    relational_dictionary_test core_tuple_store_test \
    query_factorized_parity_test core_encoded_parity_test query_query_test \
    core_engine_test core_engine_copy_test core_lookahead_parity_test \
    storage_jimc_format_test storage_mapped_parity_test
  (cd build-asan && ctest --output-on-failure -j"$(nproc)" \
    -R 'Dictionary|EncodeColumn|EncodedRelation|TupleStore|FactorizedParity|EncodedParity|LookaheadParity|UniversalTable|Engine|Jimc|MappedParity|ParallelEncode')
fi

# --- UBSAN stage (address+undefined, findings fatal) ---------------------
if [[ "${JIM_SKIP_UBSAN:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_UBSAN=1" "UBSAN"
elif ! sanitizer_available address,undefined; then
  warn_skip \
    "toolchain cannot link -fsanitize=address,undefined (libubsan missing?)" \
    "UBSAN"
else
  cmake -B build-ubsan -S . -DJIM_SANITIZE="address;undefined" \
    -DJIM_WERROR=ON -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j"$(nproc)" --target \
    lattice_partition_test lattice_kernel_parity_test \
    lattice_enumeration_test core_inference_state_test \
    core_tuple_store_test core_invariant_audit_test \
    relational_dictionary_test storage_jimc_format_test \
    storage_byte_reader_test storage_mapped_parity_test \
    core_encoded_parity_test core_engine_test serve_checkpoint_test \
    fuzz_jimc_main
  (cd build-ubsan && ctest --output-on-failure -j"$(nproc)" \
    -R 'Partition|Antichain|InferenceState|BruteForceAgreement|KernelParity|Enumeration|TupleStore|Dictionary|Jimc|ByteReader|MappedParity|EncodedParity|Engine|CheckpointCodec|InvariantAudit|fuzz_jimc_smoke')
  # The deterministic fuzz driver, long run: 5000 mutated JIMC images, goal
  # strings, request lines and checkpoint files, every outcome a typed
  # Status, under ASAN+UBSAN with findings fatal. Reproduce any failure with
  # the printed seed.
  ./build-ubsan/fuzz_jimc_main --seed=1 --iterations=5000
fi

# --- CRASH stage (fault injection + crash recovery under ASAN) -----------
# Reuses the ASAN tree: the crash-point enumeration (every syscall index
# during WriteStore) and the torn-write replays are exactly
# where a latent out-of-bounds read in recovery code would hide. The
# fault-injecting Env lives in the tests-only jim_test_support library.
if [[ "${JIM_SKIP_CRASH:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_CRASH=1" "CRASH"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "CRASH"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$(nproc)" --target jim_test_support \
    storage_fault_env_test storage_crash_recovery_test
  (cd build-asan && ctest --output-on-failure -j"$(nproc)" \
    -R 'FaultEnv|PosixEnv|CrashRecovery')
fi

# --- SERVE stage (serving daemon under ASAN + stdio smoke) ---------------
# Reuses the ASAN tree: connection handlers, checkpoint recovery, and the
# session replay path juggle raw buffers across threads — exactly where a
# lifetime bug would hide. The e2e suite in here is the PR's acceptance
# driver: 64 concurrent TCP sessions, daemon killed and restarted
# mid-stream, every remaining response line diffed byte-for-byte.
if [[ "${JIM_SKIP_SERVE:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_SERVE=1" "SERVE"
elif ! sanitizer_available address; then
  warn_skip "toolchain cannot link -fsanitize=address (libasan missing?)" \
    "SERVE"
else
  cmake -B build-asan -S . -DJIM_SANITIZE=address -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$(nproc)" --target \
    serve_protocol_test serve_session_manager_test \
    serve_checkpoint_crash_test serve_server_test serve_server_e2e_test \
    serve_checkpoint_test serve_factored_instance_test util_json_reader_test
  (cd build-asan && ctest --output-on-failure -j"$(nproc)" \
    -R 'Protocol|SessionManager|Serve|CheckpointCodec|FactoredInstance|JsonReader')
  # stdio smoke against the tier-1 build: one piped daemon run must answer
  # ping/stats and exit cleanly on the shutdown verb.
  printf '%s\n' '{"verb":"ping"}' '{"verb":"stats"}' '{"verb":"shutdown"}' | \
    ./build/jim_cli serve --stdio \
      --load-instance="$smokedir/flights.jimc" \
      > "$smokedir/serve_stdio.txt" 2> "$smokedir/serve_stdio.err"
  grep -qF '"verb":"ping"' "$smokedir/serve_stdio.txt"
  grep -qF '"live":0' "$smokedir/serve_stdio.txt"
  grep -qF '"verb":"shutdown"' "$smokedir/serve_stdio.txt"
fi

# --- PERFBENCH stage (serving benchmark harness) -------------------------
# Builds the benchmark package the way perfbench/run.py does, runs the
# harness's own gtests, and smoke-runs one short travel-durable pass: its
# correctness gates (goals identified, transcripts equal across restarts)
# must hold, i.e. the result line must report "correct": true.
cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build/perfbench -j"$(nproc)"
ctest --test-dir .bench_build/perfbench --output-on-failure
python3 perfbench/run.py --workload travel-durable --seed 1 --seconds 2 \
  --trace 0 > "$smokedir/perfbench.txt"
tail -n 1 "$smokedir/perfbench.txt" | python3 -c \
  'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'

# --- invariant-audit stage -----------------------------------------------
if [[ "${JIM_SKIP_AUDIT:-0}" == "1" ]]; then
  warn_skip "JIM_SKIP_AUDIT=1" "audit"
else
  cmake -B build-audit -S . -DJIM_AUDIT_INVARIANTS=ON -DJIM_WERROR=ON \
    -DJIM_BUILD_BENCHES=OFF -DJIM_BUILD_EXAMPLES=OFF
  cmake --build build-audit -j"$(nproc)" --target \
    core_invariant_audit_test core_parallel_parity_test \
    core_lookahead_parity_test core_encoded_parity_test \
    core_incremental_parity_test lattice_kernel_parity_test \
    query_factorized_parity_test storage_mapped_parity_test \
    core_engine_copy_test core_inference_state_test
  (cd build-audit && JIM_AUDIT_INVARIANTS=1 \
    ctest --output-on-failure -j"$(nproc)" \
    -R 'Parity|InvariantAudit|EngineCopy|InferenceState|Antichain')
fi

# --- clang-tidy stage (advisory, opt-in) ---------------------------------
if [[ "${JIM_RUN_CLANG_TIDY:-0}" == "1" ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    warn_skip "clang-tidy not installed" "clang-tidy"
  else
    # Advisory: report, don't gate — the curated .clang-tidy check set is
    # the contract, and new findings land as review feedback, not breakage.
    git ls-files 'src/*.cc' | \
      xargs clang-tidy -p build --quiet || \
      echo "WARNING: clang-tidy reported findings (advisory stage)" >&2
  fi
fi

echo "ci.sh: all stages passed"
