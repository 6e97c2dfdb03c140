// Package cpu reports the instruction-set features the vector kernels of
// packages hog and featpyr need. It holds the one CPUID probe they share.
package cpu
