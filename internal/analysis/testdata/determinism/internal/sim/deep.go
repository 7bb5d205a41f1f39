package sim

import "example.com/m/internal/util"

// deep calls into a helper chain deeper than any fixed round count.
func deep() int64 {
	return util.C01() // want "\[determinism\] call to util.C01 reaches wall-clock read time.Now"
}
