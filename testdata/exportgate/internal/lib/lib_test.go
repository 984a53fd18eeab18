package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	var _ OnlyTestedType
	if OnlyTested() != 1 || OnlyTestedVar != 5 {
		t.Fatal("OnlyTested")
	}
}
