.PHONY: all build test bench bench-quick check matrix-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The full gate: build, unit/property/golden tests and the examples'
# pinned output (examples/*.expected, diffed by dune runtest), then a bench snapshot
# round-trip — --check-json rebuilds every experiment and compares typed
# content digests, so model drift fails the chain — and finally the CLI
# end-to-end: a small fleet co-simulation emitted as JSON must round-trip
# through the typed report pipeline, and the CS-D case study (the
# backscatter/four-class tables) must round-trip report by report.  A
# NaN or infinite horizon must be refused with an error status, not run
# until killed (timeout's own status, 124).
check: build
	dune runtest
	for h in nan inf; do \
	  timeout 10 dune exec bin/ambient.exe -- system --leaves 3 --relays 1 --hours $$h \
	    > /dev/null 2>&1; s=$$?; \
	  if [ $$s -eq 0 ] || [ $$s -eq 124 ]; then \
	    echo "system --hours $$h exited $$s"; exit 1; fi; \
	done
	dune exec bench/main.exe -- --json /tmp/amblib-bench-check.json
	dune exec bench/main.exe -- --check-json /tmp/amblib-bench-check.json
	dune exec bin/ambient.exe -- system --leaves 5 --relays 1 --hours 6 \
	  --format json > /tmp/amblib-system-check.json
	dune exec bench/main.exe -- --roundtrip-report /tmp/amblib-system-check.json
	dune exec bench/main.exe -- --roundtrip-case-study D

# Reports at jobs=1 and jobs=max must be byte-identical; the JSON snapshot
# carries ns/run per experiment plus suite wall-clock at both job counts.
bench: build
	dune exec bench/main.exe -- --reports-only --jobs 1 > /dev/null
	dune exec bench/main.exe -- --json BENCH_results.json
	dune exec bench/main.exe -- --check-json BENCH_results.json
	dune exec bench/main.exe -- --matrix --json BENCH_results.json

# Smoke-grade snapshot (~4x smaller timing budget): same schema and
# digest gate, throwaway output file — for quick local sanity and CI.
# --gc-stats re-runs every experiment once with allocation accounting and
# hard-fails if the raw RNG draw kernels exceed their minor-word budget.
# --fleet is the city-scale gate: 10^5 nodes, one simulated hour, and a
# hard floor/ceiling on events/sec and peak heap words per node.
# --fleet-scale builds the city at jobs=1 and jobs=4 and requires
# bitwise-identical CSR arrays, then re-simulates one build at jobs=1 and
# jobs=4 and requires bitwise-identical outcomes; its speedup is
# reported, not gated.
bench-quick: build
	dune exec bench/main.exe -- --quick --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --check-json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --gc-stats
	dune exec bench/main.exe -- --fleet 100000 --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --fleet-scale 100000 --jobs 4 --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --matrix --json /tmp/amblib-bench-quick.json

# Resumability gate for the scenario-matrix harness: the same tiny grid
# twice against one store — the second pass must be served entirely from
# the digest-keyed cache (--expect-cached exits 1 otherwise) — then a
# resident serve session over the same store must answer the equivalent
# request with zero recomputation.  Then a hostile session: a line of
# 10^5 nested brackets and a 300-byte name must each be answered with an
# error, and the ping after them with ok.  Last, hostile stores: a
# second line of 10^5 brackets and a fractional seed must each refuse
# the load (exit 1, the JSON reader's error text), and the smoke store
# with a torn fragment appended must load, be cut back to its last
# newline byte for byte, and serve the whole grid from cache.
matrix-smoke: build
	rm -f /tmp/amblib-matrix-smoke.jsonl
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke.jsonl --jobs 2
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke.jsonl --expect-cached
	printf '%s\n' \
	  '{"op":"run","name":"smoke","leaves":4,"relays":1,"hours":2,"fault":["none","crash:1@1"],"seeds":[1,2]}' \
	  '{"op":"quit"}' \
	  | dune exec bin/ambient.exe -- serve --store /tmp/amblib-matrix-smoke.jsonl \
	  | grep -q '"ran":0,'
	{ head -c 100000 /dev/zero | tr '\0' '['; echo; \
	  printf '{"op":"run","name":"%s"}\n' "$$(head -c 300 /dev/zero | tr '\0' n)"; \
	  printf '%s\n' '{"op":"ping"}' '{"op":"quit"}'; } \
	  | dune exec bin/ambient.exe -- serve > /tmp/amblib-matrix-smoke-hostile.txt
	sed -n 1p /tmp/amblib-matrix-smoke-hostile.txt | grep -q '"status":"error"'
	sed -n 2p /tmp/amblib-matrix-smoke-hostile.txt | grep -q '"status":"error"'
	sed -n 3p /tmp/amblib-matrix-smoke-hostile.txt | grep -q '"op":"ping","status":"ok"'
	{ head -n 1 /tmp/amblib-matrix-smoke.jsonl; head -c 100000 /dev/zero | tr '\0' '['; echo; } \
	  > /tmp/amblib-matrix-smoke-deep.jsonl
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke-deep.jsonl 2> /tmp/amblib-matrix-smoke-err.txt; \
	  test $$? -eq 1
	grep -qF 'cannot load store: /tmp/amblib-matrix-smoke-deep.jsonl: line 2: bad row: nesting deeper than 512 at offset 512' \
	  /tmp/amblib-matrix-smoke-err.txt
	printf '%s\n' '{"schema":"amblib-matrix-row/1","config":"x","seed":1.5,"status":"ok"}' \
	  > /tmp/amblib-matrix-smoke-seed.jsonl
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke-seed.jsonl 2> /tmp/amblib-matrix-smoke-err.txt; \
	  test $$? -eq 1
	grep -qF 'cannot load store: /tmp/amblib-matrix-smoke-seed.jsonl: line 1: bad row: not an amblib-matrix-row/1 object' \
	  /tmp/amblib-matrix-smoke-err.txt
	cp /tmp/amblib-matrix-smoke.jsonl /tmp/amblib-matrix-smoke-torn.jsonl
	printf '%s' '{"schema":"amblib-matr' >> /tmp/amblib-matrix-smoke-torn.jsonl
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke-torn.jsonl --expect-cached
	cmp /tmp/amblib-matrix-smoke.jsonl /tmp/amblib-matrix-smoke-torn.jsonl

clean:
	dune clean
