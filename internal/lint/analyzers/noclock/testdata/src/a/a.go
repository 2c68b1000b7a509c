// Package a is the noclock test corpus: wall-clock and environment
// reads are flagged, duration arithmetic, type references and other os
// identifiers are not.
package a

import (
	"os"
	"time"
)

func bad() time.Duration {
	start := time.Now()          // want `wall-clock call time.Now`
	time.Sleep(time.Millisecond) // want `wall-clock call time.Sleep`
	return time.Since(start)     // want `wall-clock call time.Since`
}

func badChannels() {
	<-time.After(time.Second) // want `wall-clock call time.After`
}

func badEnv() (string, bool, int) {
	v, ok := os.LookupEnv("A")       // want `environment read os.LookupEnv`
	n := len(os.Environ())           // want `environment read os.Environ`
	return os.Getenv("B") + v, ok, n // want `environment read os.Getenv`
}

// ok: referring to the time package for types and constants is fine;
// only clock reads are banned.
func ok(d time.Duration) time.Duration { return d + 3*time.Second }

// okOS: os identifiers that read nothing from the host are fine.
func okOS() string { return os.DevNull }
