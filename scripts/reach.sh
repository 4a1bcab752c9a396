#!/usr/bin/env bash
# Measures which statements of the module the programs reach: the five
# examples, the four bench/ workloads and udsm-bench (every figure, then the
# gated experiments) are built with coverage over edsc/..., run under one
# GOCOVERDIR, and their counters merged. Writes results/reach.tsv: one row per
# package (statements, unreached statements, per cent reached), then one row
# per function no program entered. Run from the repository root:
#
#	bash scripts/reach.sh            # or: make reach
#
# Each workload runs a 15 s traced window. Every program runs even when one
# fails; the script then exits 1, after writing the table.
set -uo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/cov" results

programs="examples/quickstart examples/securestore examples/asyncpipeline examples/multistore examples/cloudcache bench cmd/udsm-bench"
for p in $programs; do
	go build -cover -coverpkg=edsc/... -o "$work/bin/$(basename "$p")" "./$p" || exit 1
done

export GOCOVERDIR="$work/cov"
failed=""
run() {
	echo "reach: $*" >&2
	"$@" >"$work/last.log" 2>&1 || { failed="$failed $(basename "$1")"; tail -20 "$work/last.log" >&2; }
}
for e in quickstart securestore asyncpipeline multistore cloudcache; do
	run "$work/bin/$e"
done
for w in redis_zipf_read redis_uniform_rw sql_cluster_rw cloud_revalidate; do
	run "$work/bin/bench" --workload "$w" --seed 1 --seconds 15 --trace 1 --out "$work/bench"
done
run "$work/bin/udsm-bench" -fig all -runs 1 -ops 1 -maxsize 65536 -out "$work/figs" -workdir "$work/figs"
run "$work/bin/udsm-bench" run -baseline BENCH.json

go tool covdata textfmt -i="$work/cov" -o "$work/profile.txt" || exit 1
go tool cover -func="$work/profile.txt" >"$work/funcs.txt" || exit 1

{
	printf 'package\tstatements\tunreached\treached_pct\n'
	# A block is reached when any run counted it; blocks repeat across runs.
	awk 'NR > 1 {
		split($1, loc, ":"); blk = $1
		n[blk] = $2; if ($3 > 0) hit[blk] = 1
	}
	END {
		for (blk in n) {
			split(blk, loc, ":"); pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg)
			stmts[pkg] += n[blk]; if (!(blk in hit)) miss[pkg] += n[blk]
			total += n[blk]; if (!(blk in hit)) missed += n[blk]
		}
		for (p in stmts) printf "%s\t%d\t%d\t%.1f\n", p, stmts[p], miss[p], 100 * (stmts[p] - miss[p]) / stmts[p]
		printf "total\t%d\t%d\t%.1f\n", total, missed, 100 * (total - missed) / total
	}' "$work/profile.txt" | sort
	printf '\nfunction\tlocation\n'
	awk '$NF == "0.0%" { loc = $1; sub(/:$/, "", loc); print $2 "\t" loc }' "$work/funcs.txt" | sort -k2
} >results/reach.tsv

grep -E '^(total|edsc/internal/minisql)\b' results/reach.tsv >&2
if [ -n "$failed" ]; then
	echo "reach: these runs failed:$failed" >&2
	exit 1
fi
