// Package repro is a from-scratch Go reproduction of PATCHECKO ("Hybrid
// Firmware Analysis for Known Mobile and IoT Security Vulnerabilities",
// DSN 2020): a hybrid static/dynamic binary-similarity pipeline that finds
// known-vulnerable functions in stripped firmware images and decides
// whether they have been patched.
//
// The public API lives in the patchecko subpackage; the substrates (source
// language, compilers, binary format, disassembler, emulator, neural
// network, fuzzer, corpus generators) live under internal/. The
// cmd/experiments command regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package repro
