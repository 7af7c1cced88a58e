// The benchmark is a module of its own so that it builds, runs and is
// versioned apart from the engine it measures; the import path keeps the
// selforg/ prefix, which is what lets it reach selforg/internal/...
module selforg/benchmark

go 1.22

require selforg v0.0.0

replace selforg => ../
