//go:build !oraclebug

package core

// plantedOracleBug gates the deliberately wrong build result used by
// scripts/oracle-selfcheck.sh to prove the differential oracle detects
// and shrinks real kernel bugs. It is a constant false in normal builds,
// so the guard compiles away entirely; see oraclebug_on.go.
const plantedOracleBug = false
