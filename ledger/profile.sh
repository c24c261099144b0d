#!/usr/bin/env bash
# profile.sh — profile the ledger's traced in-process replay and write
# profile summaries next to a record of how they were taken.
set -euo pipefail

usage() {
  cat >&2 <<'EOF'
usage: ledger/profile.sh [options]

Runs one traced ledger run (--trace 1) with -cpuprofile/-memprofile around
the in-process replay, then writes meta.txt and `go tool pprof -top`
summaries.

options:
  --workload <name>   warm-lookup, cold-sweep or evolve-replay (default: cold-sweep)
  --seed <n>          workload seed (default: 7)
  --seconds <n>       run budget (default: 20)
  --outdir <path>     output directory (default: .bench_build/profiles/<timestamp>)
  -h, --help          show this help
EOF
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="cold-sweep"
seed="7"
seconds="20"
timestamp="$(date -u +%Y%m%dT%H%M%SZ)"
outdir="$root/.bench_build/profiles/${timestamp}"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 ;;
    --seed) seed="${2:-}"; shift 2 ;;
    --seconds) seconds="${2:-}"; shift 2 ;;
    --outdir) outdir="${2:-}"; shift 2 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown argument: $1" >&2; usage; exit 2 ;;
  esac
done

mkdir -p "$outdir"
outdir="$(cd "$outdir" && pwd)"
cd "$root"

cpu_profile="${outdir}/cpu.out"
mem_profile="${outdir}/mem.out"
command=(
  bash ledger/run.sh
  --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1
  -cpuprofile "$cpu_profile" -memprofile "$mem_profile"
)

{
  echo "timestamp=${timestamp}"
  echo "go_version=$(go version)"
  echo "git_commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  echo "gomaxprocs=${GOMAXPROCS:-$(nproc) (default: nproc)}"
  echo "nproc=$(nproc)"
  echo "command=${command[*]}"
} > "${outdir}/meta.txt"

"${command[@]}" | tee "${outdir}/ledger.txt"

go tool pprof -top -nodecount=60 "$cpu_profile" > "${outdir}/cpu.top.txt"
go tool pprof -top -nodecount=60 -sample_index=alloc_space "$mem_profile" > "${outdir}/mem.top.txt"

echo
echo "profile output written to ${outdir}"
echo "  meta:        ${outdir}/meta.txt"
echo "  ledger:      ${outdir}/ledger.txt"
echo "  cpu profile: ${cpu_profile} (top: cpu.top.txt)"
echo "  mem profile: ${mem_profile} (top: mem.top.txt)"
