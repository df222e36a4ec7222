package main

import (
	"os"
	"strings"
	"testing"
)

// Every case is rejected before the dispatcher listens: the address is
// not one a listener could open, so a case that got that far fails on it,
// not on its flags.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-figs", "fig99"},                // not a registry ID
		{"-figs", ""},                     // no ID at all
		{"-figs", "fig06,,fig07"},         // an empty ID among valid ones
		{"-core", "slot"},                 // there is one simulator core; the selector flag is gone
		{"-quick", "fig06", "-seed", "7"}, // the flags after a non-flag word would be dropped silently
		{"-forecast-tier", "auto"},        // there is one CORP predictor; its selector flag is gone
	} {
		err := run(append(args, "-addr", "not-an-address"), os.Stdout)
		if err == nil {
			t.Errorf("%v accepted", args)
		} else if strings.Contains(err.Error(), "not-an-address") {
			t.Errorf("%v reached the listener: %v", args, err)
		}
	}
}
