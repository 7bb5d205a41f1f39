package main

import "example.com/m/lib"

func main() {
	var c lib.Counter
	c.Reset()
	_ = lib.Total([]lib.Shape{lib.Circle{R: 1}})
}

// Exported is skipped: a main package exports nothing.
func Exported() {}
