package lib

import "testing"

type perimeterer interface{ Perimeter() float64 }

func TestLib(t *testing.T) {
	var p perimeterer = Circle{R: 1}
	_ = p.Perimeter()
	(&Gauge{}).Reset()
	Keep()
}
