//go:build !linux

package main

// pinToOneCPU is a no-op where the scheduler offers no affinity call.
func pinToOneCPU() error { return nil }
