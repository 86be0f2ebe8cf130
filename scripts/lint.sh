#!/usr/bin/env bash
# Single lint entrypoint for CI and developers: build everything,
# fail on any file gofmt would rewrite, run go vet on the default,
# faultinject and invariants builds, then run the repolint analyzer
# suite (package-local and whole-program) over the tree. Finally
# regenerate the fault-point registry and fail if the checked-in copy
# has drifted from the injection sites actually present in the source.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build"
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "these files are not gofmt-clean; run gofmt -w on them:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== vet"
go vet ./...
# The tagged builds compile files the default build leaves out: the
# fault-injection runtime and the invariant checks.
go vet -tags faultinject ./...
go vet -tags invariants ./...

echo "== repolint"
go run ./cmd/repolint ./...

echo "== fault-point registry drift"
go run ./cmd/repolint -write-faultpoints ./...
if ! git diff --exit-code -- internal/fault/registry_gen.go; then
    echo "fault-point registry is out of date;" \
         "commit the regenerated internal/fault/registry_gen.go" >&2
    exit 1
fi

echo "lint passed"
