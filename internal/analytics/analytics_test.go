package analytics

import (
	"math"
	"testing"
)

func TestEWMAValidation(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		if _, err := NewEWMA(a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
	if _, err := NewEWMA(0.2); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Update(42)
	}
	if math.Abs(e.Mean()-42) > 1e-9 {
		t.Errorf("mean = %v, want 42", e.Mean())
	}
	if e.Std() > 1e-6 {
		t.Errorf("std = %v, want ~0", e.Std())
	}
	if e.Count() != 100 {
		t.Errorf("count = %d", e.Count())
	}
}

func TestEWMAZScoreFlagsSpike(t *testing.T) {
	e, _ := NewEWMA(0.1)
	// Noisy-ish baseline around 100 (deterministic wobble).
	for i := 0; i < 200; i++ {
		e.Update(100 + float64(i%7) - 3)
	}
	if z := e.ZScore(101); math.Abs(z) > 2 {
		t.Errorf("normal value z = %v", z)
	}
	if z := e.ZScore(200); z < 5 {
		t.Errorf("spike z = %v, want large", z)
	}
}

func TestEWMAColdStart(t *testing.T) {
	e, _ := NewEWMA(0.3)
	e.Update(10)
	if z := e.ZScore(1000); z != 0 {
		t.Errorf("cold-start z = %v, want 0", z)
	}
	// Zero variance path.
	for i := 0; i < 10; i++ {
		e.Update(10)
	}
	if z := e.ZScore(10); z != 0 {
		t.Errorf("identical value z = %v", z)
	}
	if z := e.ZScore(11); !math.IsInf(z, 1) {
		t.Errorf("divergent value z = %v, want +Inf", z)
	}
}

func TestCorrelatorWindowWeather(t *testing.T) {
	c := NewCorrelator(HomeRules())
	// The paper's scenario: attacker heats the room, automation opens the
	// window — but it is 30F outside and nobody is home.
	findings := c.Evaluate("window-1", "open", 0, Context{OutdoorTempF: 30, UserHome: false})
	if len(findings) == 0 {
		t.Fatal("window/weather inconsistency not flagged")
	}
	top := findings[0]
	if top.Score < 0.5 {
		t.Errorf("score = %v, want strong", top.Score)
	}
	// Warm day with the user home: perfectly normal.
	if f := c.Evaluate("window-1", "open", 0, Context{OutdoorTempF: 85, UserHome: true}); len(f) != 0 {
		t.Errorf("benign window open flagged: %+v", f)
	}
	// Unlock while away triggers the away rule.
	if f := c.Evaluate("window-1", "unlock", 0, Context{OutdoorTempF: 85, UserHome: false}); len(f) == 0 {
		t.Error("unlock-while-away not flagged")
	}
	// Non-actuation events ignored.
	if f := c.Evaluate("thermo-1", "temperature", 72, Context{OutdoorTempF: 30, UserHome: false}); len(f) != 0 {
		t.Errorf("sensor reading flagged: %+v", f)
	}
}
