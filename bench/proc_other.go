//go:build !linux

package main

import "os/exec"

func setChildAttrs(*exec.Cmd) {}

func resetPeakRSS() {}

// peakRSSMB needs /proc; elsewhere peak_rss_mb reads 0 and the run is
// reported incorrect rather than guessed.
func peakRSSMB(int) float64 { return 0 }
