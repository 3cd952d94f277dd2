package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run("", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelected(t *testing.T) {
	// E5 is fast and deterministic.
	if err := run("E5", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelectedMultiple(t *testing.T) {
	if err := run("E1, e19", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("E99", false); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}
