//go:build oraclebug

package core

// plantedOracleBug compiles a known-wrong result into the one build path
// (applyBatchInto, behind Apply, ApplyCtx, ApplyBatch and ApplyBatchCtx):
// DIFF of a non-terminal operand with itself returns One instead of
// Zero. The mutation-test script (scripts/oracle-selfcheck.sh) builds
// cmd/bfbdd with this tag and asserts that the differential oracle
// catches the divergence and shrinks the failing operation sequence to a
// handful of ops — proving the oracle is live, not vacuously green. Never enable
// this tag outside that self-check; the regular test suite fails under it
// by design.
const plantedOracleBug = true
