#!/bin/sh
# Repository check: vet, build, one race-enabled pass over every test,
# the steady-state allocation guards (BenchmarkBuildJKPooled and
# BenchmarkBuildJKSemiDirect must report 0 allocs/op — enforced in-suite
# by TestSteadyStateBuildAllocs and TestSemiDirectReplayAllocs, surfaced
# here for inspection), and the gate runs and smokes that are not Go
# tests:
#
#   - a 4-rank hfxscale d1 run (expD1 aborts when the measured collective
#     steps diverge from the bgq model prediction);
#   - the hfxd end-to-end smoke (scripts/smoke_hfxd.sh);
#   - a real SIGKILL crash-restart smoke of a checkpointed aimd run
#     (scripts/smoke_ckpt.sh: the resumed run's final-state hash must
#     equal the uninterrupted reference);
#   - the c1 seeded-replay determinism smoke: the same c1 workload
#     replayed twice must print identical per-SLO-class counts and
#     digests;
#   - the store's SIGKILL kill-and-restart smoke (scripts/smoke_store.sh:
#     the repeated job must be a disk-warm hit with zero Fock builds) and
#     a fast bench_store.sh run whose in-run gates enforce the tier
#     latency ordering, the bitwise ERI spill round trip and the
#     shared-store fleet hit-ratio gain;
#   - the full w1 gate run: stealing must beat static measured balance
#     under >=20% mispredicts plus a straggler rank, every arm must stay
#     bitwise identical, and the final build's calibrated prediction
#     error must undercut the raw cost model;
#   - a SIGKILL crash-restart smoke over a k=2 RESPA campaign
#     (scripts/smoke_mts.sh) and the full m1 gate run: the k=4 drift must
#     stay within the committed k^2 bound of the k=1 baseline, the
#     warm/cold SCF-iteration ratio must undercut the committed reuse
#     factor, and the in-process mid-cycle crash/resume must be bitwise
#     identical; run single-threaded, and on amd64 its uninterrupted
#     reference final-state hash must equal the one committed to
#     BENCH_mts.json, pinning the trajectory bits across code versions
#     (SCF bits follow the builder's default thread count, hence
#     GOMAXPROCS=1);
#   - the Fock bench regression gate: a fresh scripts/bench_fock.sh run
#     must not regress semi-direct ns/op by >20% against the committed
#     BENCH_fock.json baseline.
#
# Formatting is gated too: gofmt must list no file.
set -eux

cd "$(dirname "$0")/.."

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race -count=1 ./...
# Alloc guards: one iteration is enough — the benchmarks fail themselves
# on warm-cache misses, and the allocs/op column must read 0.
go test ./internal/hfx/ -run '^$' -bench 'BenchmarkBuildJK(Pooled|SemiDirect)$' -benchtime 1x
# 4-rank distributed scaling smoke: expD1 log.Fatals if the measured
# step counters diverge from the model.
go run ./cmd/hfxscale -exp d1 -d1-ranks 1,4 -d1-waters 1
scripts/smoke_hfxd.sh
# Crash-restart smoke: SIGKILL a checkpointed aimd run, resume it, and
# require the resumed final state hash to equal the uninterrupted
# reference — bitwise.
scripts/smoke_ckpt.sh

# Seeded-replay determinism smoke: two independent c1 runs (serial
# replays only) must agree on every per-class count and digest line.
rep1="$(mktemp)"; rep2="$(mktemp)"
go run ./cmd/hfxscale -exp c1 -c1-events 12 -c1-live=false | grep '^replay-digest' > "$rep1"
go run ./cmd/hfxscale -exp c1 -c1-events 12 -c1-live=false | grep '^replay-digest' > "$rep2"
diff "$rep1" "$rep2"
test -s "$rep1"
rm -f "$rep1" "$rep2"

# SIGKILL kill-and-restart smoke: disk-warm hit, zero Fock builds.
scripts/smoke_store.sh
# Store bench (fast mode): the run fails itself if any acceptance gate
# (tier ordering, bitwise spill warm, fleet hit-ratio gain) breaks.
store_json="$(mktemp)"
S1_FAST=1 scripts/bench_store.sh "$store_json"
rm -f "$store_json"

# W1 gate run: aborts itself if any arm's J/K checksum diverges, if
# stealing fails to beat the static measured balance on the >=20%
# mispredict + straggler row, or if the final build's calibrated error
# is not below the raw model's.
w1_json="$(mktemp)"
go run ./cmd/hfxscale -exp w1 -w1-out "$w1_json"
rm -f "$w1_json"

# SIGKILL crash-restart smoke over a k=2 campaign: the resumed run's
# final state hash must equal the uninterrupted reference — bitwise.
scripts/smoke_mts.sh
# M1 gate run: aborts itself if the k=4 drift breaks the k^2 bound (or
# the absolute ceiling), if the warm/cold SCF-iteration ratio misses
# the committed reuse factor, or if the mid-cycle crash/resume is not
# bitwise identical to the uninterrupted reference. On amd64 the
# reference's final-state hash must also equal the committed one.
m1_json="$(mktemp)"
GOMAXPROCS=1 scripts/bench_mts.sh "$m1_json"
if [ "$(go env GOARCH)" = amd64 ]; then
	m1_sha() { sed -n 's/.*"referenceFinalSha256": "\([0-9a-f]*\)".*/\1/p' "$1"; }
	test -n "$(m1_sha BENCH_mts.json)"
	test "$(m1_sha "$m1_json")" = "$(m1_sha BENCH_mts.json)"
fi
rm -f "$m1_json"

# Fock bench regression gate against the committed baseline.
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
scripts/bench_fock.sh "$fresh"
extract_ns() {
	sed -n 's/.*"BenchmarkBuildJKSemiDirect": {"ns_per_op": \([0-9.e+]*\).*/\1/p' "$1"
}
base_ns="$(extract_ns BENCH_fock.json)"
new_ns="$(extract_ns "$fresh")"
test -n "$base_ns" && test -n "$new_ns"
awk -v base="$base_ns" -v new="$new_ns" 'BEGIN {
	if (new > 1.2 * base) {
		printf "FAIL: semi-direct Fock build regressed: %.0f ns/op vs baseline %.0f (>20%%)\n", new, base
		exit 1
	}
	printf "semi-direct Fock build: %.0f ns/op vs baseline %.0f (ok)\n", new, base
}'
