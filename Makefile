# gnbody — build, test, and fuzz gates. Pure Go, no external tools.
#
#   make check   fast gate: vet + gofmt + build + full test suite, plus
#                cross, bench-smoke, bench-build, docs-refs, loc-budget and
#                docs-budget
#   make cross   vet the whole tree for arm64, where no assembly is built:
#                align's pure-Go row leaf and seq's SWAR pack kernels must
#                compile on their own
#   make bench-smoke  run every Benchmark function in the tree once
#                (-benchtime 1x): go test only compiles them, so a benchmark
#                that no longer runs would otherwise go unseen
#   make bench-build  vet and test the benchmark/ module (a Go module of
#                its own, so ./... does not reach it): a change that breaks
#                the exported surface it compiles against fails here, not
#                in the benchmark driver
#   make loc     non-test Go lines outside benchmark/ — the number the
#                ROADMAP line budget is counted in
#   make loc-budget  ratchet on that number: fails when make loc exceeds
#                LOC_BUDGET below. A PR that shrinks the tree lowers the
#                budget to its own result; one that must grow it raises the
#                number in the same diff, where a reviewer sees it
#   make docs-budget  the same ratchet on DESIGN.md's size in bytes
#                (DOCS_BUDGET): it only goes down
#   make docs-refs  DESIGN.md against the tree: every "DESIGN §N" cited in a
#                tracked Go file, README.md, ROADMAP.md, this Makefile or the
#                verify notes names a "## N." heading; every Test, Fuzz or
#                Benchmark name in DESIGN.md is a func in a _test.go; every
#                backticked .go path in DESIGN.md is a tracked file (by suffix)
#   make backhalf-rounds  one traced 5 s run of the benchmark's
#                assemble-backhalf workload: the contig stage must make at
#                most 4 blocking runtime calls per rank, whatever the chain
#                lengths, and no operation may fail — exact counts, so no
#                timing noise
#   make allocs  one untraced 5 s run each of four benchmark workloads
#                on seed 1, each with a ceiling on alloc_mb per rep and no
#                failed operation: exchange-tcp (the read exchange, a BSP
#                and an async pass over TCP, on the drivers' pooled run
#                scratch) at most 19.3 MB, overlap-noisy (discover and align
#                in-process, each on its pooled scratch) at most 2.3 MB,
#                assemble-backhalf (graph build, reduce and contigs over
#                TCP, with no maps on the graph path) at most 9 MB,
#                serve-openloop (dibserve's jobs, the same two stages on
#                warm worlds) at most 0.72 MB a job — each about 10 % over
#                its measured value; alloc_mb repeats to within 2 % run to
#                run, so these are counts, not timings
#   make fetches  one untraced 5 s run each of two benchmark workloads on
#                seed 1 and on held-out seed 2, with exact wire_mb and no
#                failed operation: exchange-tcp must put 8.34437 / 8.17781 MB
#                on the wire — the bytes the fetch-aware task assignment
#                leaves to move — and overlap-noisy 0.806573 / 0.816572 MB —
#                discover's census, keep bitmaps, kept records and task
#                placement, and the read exchange
#   make kernel-cells  one traced 5 s run of the benchmark's
#                overlap-noisy workload on seed 1 and one on held-out
#                seed 2: the aligner must see exactly 918 / 921 tasks and
#                sweep exactly 69 296 131 / 66 789 819 DP cells, the ranks
#                must fetch exactly 58 / 56 remote reads (core.remote_reads,
#                set by discover's task placement), and no operation may
#                fail — the work measure a kernel change must leave alone,
#                as exact counts
#   make race    full suite under the race detector (what CI runs)
#   make fuzz    10s smoke per fuzz target (go fuzzing allows one -fuzz
#                target per invocation, hence one run per target); a
#                target fails when, 3 s or more into its run, it reports a
#                window of 0 execs/s — a stalled target tests nothing
#   make golden  regenerate the golden fixtures after an intentional
#                change: the trace/metrics exporter schemas, and the
#                experiment tables internal/expt prints at small sizes
#   make chaos   fault-injection battery under the race detector: every
#                injected crash/stall/departure must end in a clean
#                per-rank error, never a hang or a panic
#   make dist-smoke  end-to-end multi-process check: a 4-process TCP
#                dibella run must byte-match the single-process output,
#                and kill -9 of one rank must fail the job promptly,
#                naming the lost rank
#   make assemble-smoke  end-to-end assembly check: error-free synthetic
#                reads must assemble into one contig spanning the genome,
#                byte-identical (edges and contigs) between the serial run
#                and a race-built 4-process TCP run; a second 4-process
#                run in nodes of 2 (-node-size 2) must byte-match the serial
#                artifacts at every stage, with nonzero bytes on both tiers
#   make serve-smoke  resident-service check under the race detector: a
#                race-built dibserve takes two concurrent jobs, one of
#                which chaos-kills a worker rank mid-run; the victim job
#                must be retried to completion or fail naming the rank,
#                the other must complete, and SIGTERM must drain the
#                server to a clean exit with job metrics flushed

GO      ?= go
FUZZT   ?= 10s
LOC_BUDGET = 18641
DOCS_BUDGET = 55150

.PHONY: check vet cross fmtcheck build test bench-smoke bench-build backhalf-rounds allocs fetches kernel-cells loc loc-budget docs-budget docs-refs race fuzz golden chaos dist-smoke serve-smoke assemble-smoke ci

check: vet cross fmtcheck build test bench-smoke bench-build docs-refs loc-budget docs-budget

vet:
	$(GO) vet ./...

cross:
	GOARCH=arm64 $(GO) vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

backhalf-rounds:
	@out=$$(bash benchmark/run.sh -workload assemble-backhalf -seconds 5 -trace 1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk ' \
		$$1 == "=" && $$2 == "graph.contig_rounds" { rounds = $$3; seen = 1 } \
		/operations attempted/ { ops = 1; failed = $$NF } \
		END { if (!seen || !ops) { print "backhalf-rounds: report lacks graph.contig_rounds or the operations line"; exit 1 } \
		  if (rounds > 4 || failed != 0) { printf "backhalf-rounds: graph.contig_rounds %s (limit 4), failed %s (limit 0)\n", rounds, failed; exit 1 } \
		  printf "backhalf-rounds: OK (graph.contig_rounds %s, failed 0)\n", rounds }'

allocs:
	@for want in "exchange-tcp 19.3" "overlap-noisy 2.3" "assemble-backhalf 9" "serve-openloop 0.72"; do \
		set -- $$want; \
		out=$$(bash benchmark/run.sh -workload $$1 -seed 1 -seconds 5) || { echo "$$out"; exit 1; }; \
		echo "$$out" | awk -v w=$$1 -v limit=$$2 ' \
			$$1 == "=" && $$2 == "alloc_mb" { mb = $$3; seen = 1 } \
			/operations attempted/ { ops = 1; failed = $$NF } \
			END { if (!seen || !ops) { printf "allocs %s: report lacks alloc_mb or the operations line\n", w; exit 1 } \
			  if (mb > limit || failed != 0) { printf "allocs %s: alloc_mb %s (limit %s), failed %s (limit 0)\n", w, mb, limit, failed; exit 1 } \
			  printf "allocs %s: OK (alloc_mb %s, limit %s, failed 0)\n", w, mb, limit }' || exit 1; \
	done

fetches:
	@for want in "exchange-tcp 1 8.34437" "exchange-tcp 2 8.17781" "overlap-noisy 1 0.806573" "overlap-noisy 2 0.816572"; do \
		set -- $$want; \
		out=$$(bash benchmark/run.sh -workload $$1 -seed $$2 -seconds 5) || { echo "$$out"; exit 1; }; \
		echo "$$out" | awk -v w=$$1 -v seed=$$2 -v want=$$3 ' \
			$$1 == "=" && $$2 == "wire_mb" { mb = $$3 } \
			/operations attempted/ { ops = 1; failed = $$NF } \
			END { if (mb == "" || !ops) { printf "fetches %s seed %s: report lacks wire_mb or the operations line\n", w, seed; exit 1 } \
			  if (mb != want || failed != 0) { printf "fetches %s seed %s: wire_mb %s (want %s), failed %s (want 0)\n", w, seed, mb, want, failed; exit 1 } \
			  printf "fetches %s seed %s: OK (wire_mb %s, failed 0)\n", w, seed, mb }' || exit 1; \
	done

kernel-cells:
	@for want in "1 918 69296131 58" "2 921 66789819 56"; do \
		set -- $$want; \
		out=$$(bash benchmark/run.sh -workload overlap-noisy -seed $$1 -seconds 5 -trace 1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | awk -v seed=$$1 -v wtasks=$$2 -v wcells=$$3 -v wremote=$$4 ' \
			$$1 == "=" && $$2 == "overlap.tasks" { tasks = $$3 } \
			$$1 == "=" && $$2 == "core.remote_reads" { remote = $$3 } \
			$$1 == "align.lane_occupancy:" { cells = $$2 } \
			/operations attempted/ { ops = 1; failed = $$NF } \
			END { if (tasks == "" || cells == "" || remote == "" || !ops) { printf "kernel-cells seed %s: report lacks overlap.tasks, the live-cell count, core.remote_reads or the operations line\n", seed; exit 1 } \
			  if (tasks != wtasks || cells != wcells || remote != wremote || failed != 0) { printf "kernel-cells seed %s: overlap.tasks %s (want %s), live cells %s (want %s), remote reads %s (want %s), failed %s (want 0)\n", seed, tasks, wtasks, cells, wcells, remote, wremote, failed; exit 1 } \
			  printf "kernel-cells seed %s: OK (overlap.tasks %s, %s cells, %s remote reads, failed 0)\n", seed, tasks, cells, remote }' || exit 1; \
	done

loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs cat | wc -l

loc-budget:
	@n=$$($(MAKE) -s loc); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "loc-budget: $$n non-test Go lines, budget $(LOC_BUDGET)"; exit 1; \
	fi; \
	echo "loc-budget: OK ($$n of $(LOC_BUDGET))"

docs-budget:
	@n=$$(wc -c < DESIGN.md); \
	if [ "$$n" -gt $(DOCS_BUDGET) ]; then \
		echo "docs-budget: DESIGN.md is $$n bytes, budget $(DOCS_BUDGET)"; exit 1; \
	fi; \
	echo "docs-budget: OK ($$n of $(DOCS_BUDGET))"

docs-refs:
	@heads="$$(sed -n 's/^## \([0-9][0-9]*\)\. .*/\1/p' DESIGN.md | tr '\n' ' ')"; fail=0; \
	{ git ls-files '*.go'; ls README.md ROADMAP.md Makefile .claude/skills/verify/SKILL.md 2>/dev/null; } | \
		xargs grep -HnoE 'DESIGN(\.md)?`? §[0-9]+' | \
		awk -v heads="$$heads" 'BEGIN { n = split(heads, h, " "); for (i = 1; i <= n; i++) ok[h[i]] = 1 } \
			{ num = $$0; sub(/.*§/, "", num); if (!(num in ok)) { print "docs-refs: " $$0 ": DESIGN.md has no section " num; bad = 1 } } \
			END { exit bad }' || fail=1; \
	for t in $$(grep -oE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' DESIGN.md | sort -u); do \
		git grep -qE "^func $$t\(" -- '*_test.go' || { echo "docs-refs: DESIGN.md names $$t, which no _test.go defines"; fail=1; }; \
	done; \
	for p in $$(grep -oE '`[^` ]+\.go`' DESIGN.md | tr -d '`' | sort -u); do \
		git ls-files | awk -v p="$$p" '$$0 == p || (length($$0) > length(p) && substr($$0, length($$0) - length(p)) == "/" p) { f = 1 } END { exit !f }' || \
			{ echo "docs-refs: DESIGN.md names $$p, which matches no tracked file"; fail=1; }; \
	done; \
	[ $$fail = 0 ] && echo "docs-refs: OK (sections:$$heads)"

# The wall-clock experiments in internal/expt run ~10x slower under the
# race detector; the default 10m per-package test timeout is not enough.
race:
	$(GO) test -race -timeout 45m ./...

fuzz:
	@for t in \
		'FuzzFASTA$$ ./internal/seq/' \
		'FuzzFASTARange$$ ./internal/seq/' \
		'FuzzFASTQ$$ ./internal/seq/' \
		'FuzzWire$$ ./internal/seq/' \
		'FuzzPackDiff$$ ./internal/seq/' \
		'FuzzBasesDiff$$ ./internal/seq/' \
		'FuzzLoadDiff$$ ./internal/seq/' \
		'FuzzXDrop$$ ./internal/align/' \
		'FuzzXDropDiff$$ ./internal/align/' \
		'FuzzFrame ./internal/transport/' \
		'FuzzSendV$$ ./internal/transport/' \
		'FuzzAddrTable$$ ./internal/transport/' \
		'FuzzHierRecord$$ ./internal/dist/' \
		'FuzzCacheEvict ./internal/core/' \
		'FuzzDecodeHits$$ ./internal/core/' \
		'FuzzJobRequest ./internal/serve/' \
		'FuzzOverlapClassify ./internal/graph/' \
		'FuzzContigLinks$$ ./internal/graph/' \
		'FuzzGraphWire$$ ./internal/graph/' \
		'FuzzDiscoverWire$$ ./internal/pipeline/' \
		'FuzzAssignTasks$$ ./internal/partition/' \
	; do \
		set -- $$t; \
		echo "$(GO) test -fuzz=$$1 -fuzztime $(FUZZT) $$2"; \
		out=$$($(GO) test -fuzz=$$1 -fuzztime $(FUZZT) $$2 2>&1); rc=$$?; printf '%s\n' "$$out"; \
		[ $$rc = 0 ] || exit $$rc; \
		printf '%s\n' "$$out" | awk -v t="$$1" ' \
			$$1 == "fuzz:" && $$2 == "elapsed:" && / execs: [0-9]+ [(]0[/]sec[)]/ { \
				e = $$3; sub(/s,$$/, "", e); \
				if (e ~ /[mh]/ || e + 0 >= 3) { printf "fuzz %s: stalled at 0 execs/s: %s\n", t, $$0; bad = 1 } } \
			END { exit bad }' || exit 1; \
	done

golden:
	$(GO) test -run TestGolden ./internal/trace/ -update
	$(GO) test -run TestGolden ./internal/trace/
	$(GO) test -run TestExperimentsMatchGolden ./internal/expt/ -update
	$(GO) test -run TestExperimentsMatchGolden ./internal/expt/

chaos:
	$(GO) test -race -run 'Chaos|Fault' ./...

# True multi-process smoke: fork 4 dibella worker processes over localhost
# TCP and require byte-identical output to the 1-process in-memory run, for
# both coordination strategies.
dist-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/genreads ./cmd/genreads && \
	$(GO) build -o $$tmp/dibella ./cmd/dibella && \
	$$tmp/genreads -genome 60000 -coverage 8 -meanlen 3000 -seed 3 -out $$tmp/reads.fa && \
	global=$$(grep -v '^>' $$tmp/reads.fa | tr -d '\n' | wc -c); \
	for mode in bsp async; do \
		$$tmp/dibella -in $$tmp/reads.fa -mode $$mode -procs 1 -coverage 8 -out $$tmp/ref.tsv 2>/dev/null && \
		$$tmp/dibella -in $$tmp/reads.fa -mode $$mode -dist -procs 4 -coverage 8 \
			-metrics $$tmp/met-$$mode.csv -out $$tmp/dist.tsv 2>/dev/null && \
		cmp $$tmp/ref.tsv $$tmp/dist.tsv && echo "dist-smoke $$mode: OK ($$(wc -l < $$tmp/ref.tsv) hits)" || exit 1; \
		for rk in 0 1 2 3; do \
			awk -F, -v global=$$global -v rk=$$rk -v mode=$$mode ' \
				NR==1 { for (i = 1; i <= NF; i++) col[$$i] = i; next } \
				$$1 == rk { sb = $$col["store_bytes"]; oop = $$col["oop_gets"]; \
				  if (oop != 0) { printf "dist-smoke %s rank %s: %d out-of-partition Gets\n", mode, rk, oop; exit 1 } \
				  if (sb <= 0 || sb * 10 >= global * 4) { printf "dist-smoke %s rank %s: resident %d bytes of %d global — residency broken\n", mode, rk, sb, global; exit 1 } \
				  printf "dist-smoke %s rank %s: resident %d of %d global read bytes, 0 OOP gets\n", mode, rk, sb, global }' \
				$$tmp/met-$$mode.csv.rank$$rk || exit 1; \
		done; \
	done; \
	$$tmp/genreads -genome 300000 -coverage 10 -meanlen 3000 -seed 5 -out $$tmp/big.fa && \
	$$tmp/dibella -in $$tmp/big.fa -mode bsp -dist -procs 4 -coverage 10 -progress-deadline 15s \
		-out $$tmp/kill.tsv >/dev/null 2>$$tmp/kill.err & job=$$!; \
	found=0; for i in $$(seq 1 100); do \
		pgrep -f "$$tmp/dibella.* -rank 1 " >/dev/null && { found=1; break; }; sleep 0.1; \
	done; \
	[ $$found = 1 ] || { echo "dist-smoke kill: rank 1 worker never appeared"; kill $$job 2>/dev/null; exit 1; }; \
	pkill -9 -f "$$tmp/dibella.* -rank 1 "; \
	if wait $$job; then echo "dist-smoke kill: job exited zero after a rank was killed"; exit 1; fi; \
	grep -q "rank 1" $$tmp/kill.err || { echo "dist-smoke kill: failure does not name rank 1:"; cat $$tmp/kill.err; exit 1; }; \
	echo "dist-smoke kill-one-rank: OK (job failed promptly, naming rank 1)"

# Resident-service smoke: dibserve (race-built) over the dist backend with
# chaos enabled. Two jobs run concurrently on separate resident worlds; the
# victim job arms chaos_kill_rank=1, so its world loses a rank mid-run and
# the job is either rescheduled onto a rebuilt world (retries >= 1) or
# fails with a typed error naming rank 1. The healthy job must stream hits
# regardless, and SIGTERM must drain to exit 0 with per-job metrics on disk.
serve-smoke:
	@tmp=$$(mktemp -d); srv=; trap 'kill $$srv 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o $$tmp/dibserve ./cmd/dibserve && \
	$(GO) build -o $$tmp/genreads ./cmd/genreads && \
	$$tmp/genreads -genome 60000 -coverage 8 -meanlen 3000 -seed 3 -out $$tmp/reads.fa || exit 1; \
	$$tmp/dibserve -addr 127.0.0.1:0 -backend dist -procs 3 -worlds 2 -chaos \
		-progress-deadline 2s -max-retries 1 -ready-file $$tmp/addr \
		-metrics $$tmp/jobs.csv 2>$$tmp/serve.log & srv=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "serve-smoke: server never became ready"; cat $$tmp/serve.log; exit 1; }; \
	base="http://$$(cat $$tmp/addr)"; \
	spec="k=15&lofreq=2&hifreq=60&x=15&minscore=100&mode=bsp"; \
	curl -sf -X POST -H 'Content-Type: text/x-fasta' --data-binary @$$tmp/reads.fa \
		"$$base/v1/jobs?$$spec&chaos_kill_rank=1" > $$tmp/victim.json || { echo "serve-smoke: victim submit failed"; cat $$tmp/serve.log; exit 1; }; \
	curl -sf -X POST -H 'Content-Type: text/x-fasta' --data-binary @$$tmp/reads.fa \
		"$$base/v1/jobs?$$spec" > $$tmp/healthy.json || { echo "serve-smoke: healthy submit failed"; exit 1; }; \
	vid=$$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' $$tmp/victim.json); \
	hid=$$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' $$tmp/healthy.json); \
	[ -n "$$vid" ] && [ -n "$$hid" ] || { echo "serve-smoke: no job ids in submit responses"; exit 1; }; \
	curl -s -m 300 -o $$tmp/victim.tsv -w '%{http_code}' "$$base/v1/jobs/$$vid/hits?wait=1" > $$tmp/victim.code & poll=$$!; \
	hcode=$$(curl -s -m 300 -o $$tmp/healthy.tsv -w '%{http_code}' "$$base/v1/jobs/$$hid/hits?wait=1"); \
	wait $$poll; vcode=$$(cat $$tmp/victim.code); \
	[ "$$hcode" = 200 ] && [ -s $$tmp/healthy.tsv ] || { echo "serve-smoke: healthy job did not stream hits (status $$hcode)"; cat $$tmp/serve.log; exit 1; }; \
	echo "serve-smoke healthy: OK ($$(wc -l < $$tmp/healthy.tsv) hits)"; \
	if [ "$$vcode" = 200 ]; then \
		retries=$$(curl -s "$$base/v1/jobs/$$vid" | sed -n 's/.*"retries":\([0-9]*\).*/\1/p'); \
		[ "$$retries" -ge 1 ] || { echo "serve-smoke: victim completed with $$retries retries — the chaos kill never bit"; exit 1; }; \
		cmp $$tmp/victim.tsv $$tmp/healthy.tsv || { echo "serve-smoke: retried victim's hits differ from the healthy job's"; exit 1; }; \
		echo "serve-smoke victim: OK (retried $$retries time(s), hits match)"; \
	else \
		grep -q "rank 1" $$tmp/victim.tsv || { echo "serve-smoke: victim failure does not name rank 1:"; cat $$tmp/victim.tsv; exit 1; }; \
		echo "serve-smoke victim: OK (failed naming rank 1 after retry budget)"; \
	fi; \
	kill -TERM $$srv; \
	if ! wait $$srv; then echo "serve-smoke: server did not drain cleanly:"; cat $$tmp/serve.log; exit 1; fi; \
	srv=; \
	grep -q "$$hid" $$tmp/jobs.csv || { echo "serve-smoke: drained server left no job metrics"; exit 1; }; \
	echo "serve-smoke drain: OK (clean exit, job metrics flushed)"

# End-to-end assembly smoke: error-free reads sampled from a synthetic
# genome must assemble back into one contig spanning it, and both the
# reduced string graph's edge TSV and the contig FASTA must be
# byte-identical between the 1-process serial run and a race-built
# 4-process TCP run. The same 4 processes in nodes of 2 (the leader-relay
# collectives) must byte-match the serial hits, edges and contigs, and the
# per-rank metrics must show traffic on both tiers (nonzero intra AND
# inter bytes): the relay ran rather than the flat path.
assemble-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o $$tmp/dibella ./cmd/dibella && \
	$(GO) build -o $$tmp/genreads ./cmd/genreads && \
	$$tmp/genreads -genome 30000 -coverage 8 -meanlen 600 -sigma 0.1 -error 0 -both -seed 5 \
		-out $$tmp/reads.fa -layout $$tmp/layout.tsv && \
	[ "$$(tail -n +2 $$tmp/layout.tsv | wc -l)" = "$$(grep -c '^>' $$tmp/reads.fa)" ] || \
		{ echo "assemble-smoke: layout rows != reads"; exit 1; }; \
	args="-in $$tmp/reads.fa -k 15 -lofreq 2 -hifreq 60 -minscore 100 -x 20"; \
	for st in reduce contigs; do \
		$$tmp/dibella $$args -procs 1 -stages $$st -out $$tmp/$$st.serial 2>/dev/null && \
		$$tmp/dibella $$args -dist -procs 4 -stages $$st -out $$tmp/$$st.dist 2>/dev/null && \
		cmp $$tmp/$$st.serial $$tmp/$$st.dist && \
		echo "assemble-smoke $$st: OK (serial == 4-rank dist)" || exit 1; \
	done; \
	$$tmp/dibella $$args -procs 1 -stages overlap -out $$tmp/overlap.serial 2>/dev/null || exit 1; \
	for st in overlap reduce contigs; do \
		$$tmp/dibella $$args -dist -procs 4 -node-size 2 -stages $$st \
			-metrics $$tmp/met-$$st.csv -out $$tmp/$$st.nodes 2>/dev/null && \
		cmp $$tmp/$$st.serial $$tmp/$$st.nodes || exit 1; \
		awk -F, -v st=$$st ' \
			FNR==1 { for (i = 1; i <= NF; i++) col[$$i] = i; next } \
			{ intra += $$col["intra_bytes"]; inter += $$col["inter_bytes"] } \
			END { if (intra <= 0 || inter <= 0) { \
				printf "assemble-smoke %s nodes of 2: tier split broken (intra %d, inter %d)\n", st, intra, inter; exit 1 } \
			  printf "assemble-smoke %s nodes of 2: OK (serial == 4-rank dist; %d intra, %d inter bytes)\n", st, intra, inter }' \
			$$tmp/met-$$st.csv.rank* || exit 1; \
	done; \
	[ "$$(grep -c '^>' $$tmp/contigs.serial)" = 1 ] || { echo "assemble-smoke: expected one contig"; exit 1; }; \
	len=$$(sed -n '1s/.*len=\([0-9]*\).*/\1/p' $$tmp/contigs.serial); \
	[ "$$len" -ge 29000 ] || { echo "assemble-smoke: contig $$len bp does not span the 30000 bp genome"; exit 1; }; \
	echo "assemble-smoke: OK (one contig, $$len of 30000 bp)"

ci: check backhalf-rounds allocs fetches kernel-cells race fuzz chaos dist-smoke serve-smoke assemble-smoke
