// Package mavr is a Go reproduction of "MAVR: Code Reuse Stealthy
// Attacks and Mitigation on Unmanned Aerial Vehicles" (Habibi, Gupta,
// Carlson, Panicker, Bertino — ICDCS 2015).
//
// The repository simulates the paper's entire hardware/software stack:
// an ATmega2560 application processor (internal/avr), an AVR
// assembler/disassembler (internal/asm), ELF and Intel HEX object
// formats (internal/elfobj, internal/hexfile), the MAVLink protocol
// (internal/mavlink), a synthetic ArduPilot-style firmware generator
// (internal/firmware), the attacker's gadget discovery and the three
// stealthy ROP attack generations (internal/gadget, internal/attack),
// the MAVR randomization defense (internal/core), and the full board
// with master processor, external flash, watchdog and ground station
// (internal/board, internal/gcs).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results of every table and figure. cmd/mavr-bench
// regenerates each evaluation artifact, and its test holds the output
// to the recorded transcript cmd/mavr-bench/testdata/paper.txt.
package mavr
