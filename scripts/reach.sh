#!/usr/bin/env bash
# Measures which statements of the module the programs reach. Built with
# coverage over edsc/... and run under one GOCOVERDIR, their counters merged:
#
#   - the five examples;
#   - the four bench/ workloads, each a 15 s traced window;
#   - udsm-bench: every figure, -fig batch, then the gated experiments;
#   - sqlshell over scripts/reach/sqlshell.sql on stdin (minisql's grammar
#     contract; a line that prints "error:" fails the run), then one -c run,
#     both on a directory of 1 KiB pages;
#   - edsckv: put/get/keys/len/del/clear on every store kind (mem, fs:, sql:,
#     redis: with and without a prefix, cloud:), plain and with -compress
#     -encrypt -cache, then -op bench on each;
#   - miniredis-server (-snapshot, -sweep, -metrics) and cloudsim-server as
#     the servers behind edsckv's redis: and cloud: stores; miniredis-server
#     is stopped with SIGTERM, restarted from its snapshot and read back.
#
# Writes results/reach.tsv: one row per package (statements, unreached
# statements, per cent reached), then one row per function no program
# entered, with the disposition that says why it stays. A function keeps the
# disposition the previous table gave the same name in the same file; a new
# one gets "?", which TestReachDispositions refuses until it is replaced by
# hand. Run from the repository root:
#
#	bash scripts/reach.sh            # or: make reach
#
# Every program runs even when one fails; the script then exits 1, after
# writing the table. Servers are stopped on every exit path.
set -uo pipefail

work=$(mktemp -d)
bin="$work/bin"
pids="" # servers still running
cleanup() {
	for p in $pids; do
		kill "$p" 2>/dev/null
		wait "$p" 2>/dev/null
	done
	rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM HUP
mkdir -p "$bin" "$work/cov" results
touch "$work/prev.tsv"
[ -f results/reach.tsv ] && cp results/reach.tsv "$work/prev.tsv"

programs="examples/quickstart examples/securestore examples/asyncpipeline examples/multistore examples/cloudcache bench cmd/udsm-bench cmd/sqlshell cmd/miniredis-server cmd/cloudsim-server cmd/edsckv"
for p in $programs; do
	go build -cover -coverpkg=edsc/... -o "$bin/$(basename "$p")" "./$p" || exit 1
done

export GOCOVERDIR="$work/cov"
failed=""
run() {
	echo "reach: $*" >&2
	"$@" >"$work/last.log" 2>&1 || { failed="$failed $(basename "$1")"; tail -20 "$work/last.log" >&2; }
}
# refused CMD...: like run, for a command that must fail.
refused() {
	echo "reach: ! $*" >&2
	"$@" >"$work/last.log" 2>&1 && failed="$failed $(basename "$1")"
}
# serve LOG PATTERN CMD...: starts a server in the background and sets
# $found to the first match of PATTERN (its address) in what it prints.
serve() {
	local log=$1 pattern=$2
	shift 2
	echo "reach: $* &" >&2
	"$@" >"$log" 2>&1 &
	pids="$pids $!"
	found=""
	for _ in $(seq 100); do
		found=$(grep -oE "$pattern" "$log" | head -1)
		[ -n "$found" ] && return
		sleep 0.1
	done
	failed="$failed $(basename "$1")"
	cat "$log" >&2
}
# stop NAME: SIGTERM to the newest server still running, which saves and
# exits 0.
stop() {
	local p=${pids##* }
	pids=${pids% *}
	kill "$p" && wait "$p" || failed="$failed $1"
}

for e in quickstart securestore asyncpipeline multistore cloudcache; do
	run "$bin/$e"
done
for w in redis_zipf_read redis_uniform_rw sql_cluster_rw cloud_revalidate; do
	run "$bin/bench" --workload "$w" --seed 1 --seconds 15 --trace 1 --out "$work/bench"
done
run "$bin/udsm-bench" -fig all -runs 1 -ops 1 -maxsize 65536 -out "$work/figs" -workdir "$work/figs"
run "$bin/udsm-bench" -fig batch -out "$work/figs" -workdir "$work/figs"
run "$bin/udsm-bench" run -baseline BENCH.json

run "$bin/sqlshell" "$work/sqldb?page_size=1024" <scripts/reach/sqlshell.sql
grep 'error:' "$work/last.log" >&2 && failed="$failed sqlshell.sql"
run "$bin/sqlshell" -c "INSERT INTO users (id, name) VALUES (9, 'zed'); SELECT id, name FROM users" "$work/sqldb?page_size=1024"

ip='127\.0\.0\.1:[0-9]+'
serve "$work/cloudsim.log" "http://$ip" "$bin/cloudsim-server" -addr 127.0.0.1:0 -profile local
cloud=$found
redis() { serve "$work/redis.log" "$ip" "$bin/miniredis-server" -addr 127.0.0.1:0 -snapshot "$work/redis.mrdb" -sweep 100ms -metrics 127.0.0.1:0; }
redis
r=$found
for s in mem "fs:$work/fs" "sql:$work/kvsql" "redis:$r" "redis:$r/p" "cloud:$cloud/bucket"; do
	for enhance in "" "-compress -encrypt reach -cache 8"; do
		for op in "put -key a -value 1" "put -key b -value 2" "get -key a" keys len "del -key a" clear; do
			# A mem store lives for one process: a get or del finds no key.
			try=run
			[ "$s" = mem ] && [[ $op == get* || $op == del* ]] && try=refused
			# shellcheck disable=SC2086 # $enhance and $op are word lists
			$try "$bin/edsckv" -store "$s" $enhance -op $op
		done
	done
	run "$bin/edsckv" -store "$s" -op bench
done
run "$bin/edsckv" -store "redis:$r" -op put -key kept -value 1
run "$bin/edsckv" -store "redis:$r/p" -op put -key kept -value 2
stop miniredis-server
redis
r=$found
run "$bin/edsckv" -store "redis:$r" -op get -key kept
run "$bin/edsckv" -store "redis:$r/p" -op get -key kept
stop miniredis-server
stop cloudsim-server

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
	printf '\nfunction\tlocation\tdisposition\n'
	awk '$NF == "0.0%" { loc = $1; sub(/:$/, "", loc); print $2 "\t" loc }' "$work/funcs.txt" | sort -k2 >"$work/zero.tsv"
	# A disposition is keyed on function name and file, not line; functions
	# of one name in one file (methods of different types) are told apart
	# by their order in it.
	awk -F'\t' '
	function key(name, loc,   f, l, k, i, r) {
		f = loc; sub(/:[0-9]+$/, "", f); l = loc; sub(/^.*:/, "", l); k = name "\t" f
		r = 0; for (i = 1; i <= cnt[FILENAME, k]; i++) if (at[FILENAME, k, i] < l + 0) r++
		return k "\t" r
	}
	FNR == 1 { pass[FILENAME]++ }
	$2 ~ /:[0-9]+$/ && pass[FILENAME] == 1 {
		f = $2; sub(/:[0-9]+$/, "", f); l = $2; sub(/^.*:/, "", l); k = $1 "\t" f
		at[FILENAME, k, ++cnt[FILENAME, k]] = l + 0
		next
	}
	$2 ~ /:[0-9]+$/ && FILENAME == prev && NF >= 3 { disp[key($1, $2)] = $3; next }
	$2 ~ /:[0-9]+$/ && FILENAME != prev { d = disp[key($1, $2)]; print $0 "\t" (d == "" ? "?" : d) }
	' prev="$work/prev.tsv" "$work/prev.tsv" "$work/zero.tsv" "$work/prev.tsv" "$work/zero.tsv"
} >"$work/reach.tsv"
mv "$work/reach.tsv" results/reach.tsv

grep -E '^(total|edsc/internal/minisql)\b' results/reach.tsv >&2
if [ -n "$failed" ]; then
	echo "reach: these runs failed:$failed" >&2
	exit 1
fi
