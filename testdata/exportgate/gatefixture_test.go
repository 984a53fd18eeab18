package gatefixture

import "testing"

func TestOnlyRootTested(t *testing.T) {
	if OnlyRootTested() == nil {
		t.Fatal("OnlyRootTested")
	}
}
