package main

import (
	"os"
	"testing"
)

// Every case is rejected before the dispatcher listens.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-core", "slot"},                 // there is one simulator core; the selector flag is gone
		{"-quick", "fig06", "-seed", "7"}, // the flags after a non-flag word would be dropped silently
		{"-forecast-tier", "sometimes"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
