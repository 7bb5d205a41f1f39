package analysis

import "testing"

func TestDeadStoreFixture(t *testing.T) {
	checkFixture(t, "deadstore", NewDeadStore())
}
