package util

import "time"

// C01 reaches the wall clock 35 calls down: with callers sorted before
// callees, each fixpoint round resolves one more level of the chain.
func C01() int64 { return C02() }

func C02() int64 { return C03() }

func C03() int64 { return C04() }

func C04() int64 { return C05() }

func C05() int64 { return C06() }

func C06() int64 { return C07() }

func C07() int64 { return C08() }

func C08() int64 { return C09() }

func C09() int64 { return C10() }

func C10() int64 { return C11() }

func C11() int64 { return C12() }

func C12() int64 { return C13() }

func C13() int64 { return C14() }

func C14() int64 { return C15() }

func C15() int64 { return C16() }

func C16() int64 { return C17() }

func C17() int64 { return C18() }

func C18() int64 { return C19() }

func C19() int64 { return C20() }

func C20() int64 { return C21() }

func C21() int64 { return C22() }

func C22() int64 { return C23() }

func C23() int64 { return C24() }

func C24() int64 { return C25() }

func C25() int64 { return C26() }

func C26() int64 { return C27() }

func C27() int64 { return C28() }

func C28() int64 { return C29() }

func C29() int64 { return C30() }

func C30() int64 { return C31() }

func C31() int64 { return C32() }

func C32() int64 { return C33() }

func C33() int64 { return C34() }

func C34() int64 { return C35() }

func C35() int64 { return time.Now().UnixNano() }
