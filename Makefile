# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench experiments fuzz verify lint lint-baseline tools clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Domain static analysis (doc/LINT.md): determinism, RNG ownership,
# float comparisons, hot-path allocation budgets. Exits 1 on any
# finding that is neither suppressed in source nor baselined.
lint:
	$(GO) run ./cmd/mpg-lint ./...

# Absorb all current findings into lint.baseline.json. Use sparingly:
# the committed baseline is empty and is supposed to stay that way.
lint-baseline:
	$(GO) run ./cmd/mpg-lint -write-baseline ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation with pass/fail verdicts.
experiments: tools
	bin/mpg-experiments

fuzz:
	$(GO) test -fuzz=FuzzDecoder -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzTextReader -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzTextRoundTrip -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzTraceEventEncoding -fuzztime=30s ./internal/timeline

# Differential verification: graph traversal vs the DES oracle,
# metamorphic properties, trace/graph linter (doc/VERIFY.md).
verify:
	$(GO) run ./cmd/mpg-verify -seed 1 -n 200

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
