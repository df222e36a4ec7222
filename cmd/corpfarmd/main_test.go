package main

import "testing"

// Every case is rejected before the worker contacts a dispatcher.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-workload-cache", "off"}, // the snapshot cache is always on outside tests
		{"-dispatcher", "http://127.0.0.1:1", "stray", "-slots", "2"}, // flags after a non-flag word would be dropped silently
		{"-slots", "2"}, // -dispatcher is required
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
