// Package accel provides the accelerators integrated into the Cohort SoC
// (paper §5.2) and the timed, latency-insensitive device wrappers that the
// Cohort engine and the MAPLE baseline host. SHA-256 is the standard
// library's crypto/sha256, standing in for the prototype's off-the-shelf
// OpenCores core (it uses the CPU's SHA extensions where there are some);
// AES-128 is a from-scratch, bit-exact kernel verified against crypto/aes;
// the H.264-style intra encoder with CAVLC-flavoured entropy coding and the
// radix-2 FFT/STFT are from scratch too.
package accel
