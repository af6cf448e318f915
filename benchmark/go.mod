// The benchmark is a module of its own so that building it is separate
// from the repository's `go build ./... && go test ./...`; the module
// path sits under mrdspark/ so it may import the internal packages it
// measures, and the replace points at the checkout it lives in.
module mrdspark/benchmark

go 1.22

require mrdspark v0.0.0

replace mrdspark => ../
