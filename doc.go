// Package bfbdd is a binary decision diagram (BDD) library built around
// the parallel partial breadth-first construction algorithm of Yang and
// O'Hallaron, "Parallel Breadth-First BDD Construction" (PPoPP 1997).
//
// # Overview
//
// A Manager owns a fixed set of Boolean variables and constructs reduced
// ordered BDDs over them. Construction can run with one of five engines:
//
//   - EngineDF: conventional depth-first apply (Brace/Rudell/Bryant style),
//   - EngineBF: pure breadth-first expansion/reduction (no threshold),
//   - EngineHybrid: breadth-first until a memory threshold, then
//     depth-first (Chen/Yang/Bryant),
//   - EnginePBF: the paper's sequential partial breadth-first algorithm
//     with evaluation contexts (the default), and
//   - EnginePar: the paper's parallel algorithm — per-worker node managers
//     and compute caches, per-variable unique-table locks, and dynamic
//     load balancing by stealing operation groups from context stacks.
//
// All engines produce identical canonical diagrams; they differ in memory
// behaviour and parallel scalability.
//
// # Handles and garbage collection
//
// Every BDD value returned by the library is pinned: it stays valid across
// the manager's internal garbage collections (mark-compact by default),
// which relocate nodes. Call Free when a BDD is no longer needed so its
// nodes can be reclaimed. Because BDDs are canonical, Equal is a constant
// time comparison.
//
// # Concurrency
//
// A Manager parallelizes internally (EnginePar) but its public API is not
// safe for concurrent use: issue operations from one goroutine at a time.
//
// # Quick start
//
//	m := bfbdd.New(4, bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(4))
//	a, b := m.Var(0), m.Var(1)
//	f := a.And(b)
//	g := b.And(a)
//	fmt.Println(f.Equal(g)) // true
//	fmt.Println(f.SatCount()) // 4 (two free variables)
package bfbdd
