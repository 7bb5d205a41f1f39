package exp

import (
	"fmt"
	"time"

	"xlf/internal/device"
	"xlf/internal/lwc"
	"xlf/internal/metrics"
	"xlf/internal/xauth"
)

// runE3 compares the Barreto et al. baseline (cloud round trips for basic
// users; redirect + on-device SSO for advanced users) with XLF's
// delegation proxy across a scaling request mix, reporting mean and p95
// authentication latency and the on-device cost the baseline imposes on a
// constrained (Table I bulb-class) device.
//
// It is the E3 registry entry. The request mixes share one RNG stream
// (each load level continues where the last left off), so this experiment
// stays sequential internally.
func runE3(env *Env) *Result {
	r := &Result{ID: "E3", Title: "Delegated authentication: XLF proxy vs Barreto baseline"}

	users := make([]xauth.User, 0, 20)
	for i := 0; i < 20; i++ {
		priv := xauth.Basic
		mfa := ""
		if i%4 == 0 {
			priv = xauth.Advanced
			mfa = fmt.Sprintf("mfa-%d", i)
		}
		users = append(users, xauth.User{
			Name: fmt.Sprintf("user-%d", i), Password: fmt.Sprintf("pw-%d", i),
			Priv: priv, MFASecret: mfa,
		})
	}
	//xlf:allow-cryptomisuse E3 is a deterministic SSO benchmark; the authority key only namespaces simulated tokens and protects nothing. Reviewed 2026-08.
	authority, err := xauth.NewAuthority([]byte("e3-key"), users)
	if err != nil {
		panic(err)
	}

	// On-device SSO verification time for the baseline's advanced mode: an
	// HMAC-SHA256 token check modeled on the bulb's Table I budget
	// (SHA-256 software ~ AES-class cycles/byte; token ~ 300 bytes).
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		panic(err)
	}
	reg := lwc.NewRegistry()
	aes, _ := reg.Lookup("AES")
	cost := device.CostModel(bulb, aes.CyclesPerByte, aes.RAMBytes)
	deviceVerify := time.Duration(cost.SecondsPerKB * 0.3 * float64(time.Second))

	proxy := xauth.NewProxy(authority, xauth.DefaultProxyConfig())
	baseline := xauth.NewBaseline(authority, xauth.BaselineConfig{
		CloudRTT:     45 * time.Millisecond,
		RedirectRTT:  10 * time.Millisecond,
		DeviceVerify: deviceVerify,
	})

	rng := env.Rand()
	now := time.Hour
	tokens := make(map[string]xauth.Token)
	for _, u := range users {
		mfa := ""
		if u.MFASecret != "" {
			mfa, _ = authority.MFACodeFor(u.Name, now)
		}
		tok, err := authority.Authenticate(u.Name, u.Password, mfa, "", now)
		if err != nil {
			panic(err)
		}
		tokens[u.Name] = tok
	}

	t := metrics.NewTable("", "Requests", "Scheme", "Mean", "p95", "Denied")
	for _, nReq := range []int{100, 1000, 5000} {
		var latP, latB metrics.Latencies
		deniedP, deniedB := 0, 0
		for i := 0; i < nReq; i++ {
			u := users[rng.Intn(len(users))]
			tok := tokens[u.Name]
			write := u.Priv == xauth.Advanced && rng.Intn(4) == 0
			origin := xauth.FromLAN
			if rng.Intn(5) == 0 {
				origin = xauth.FromWAN
			}
			req := xauth.AccessRequest{
				User: u.Name, DeviceID: "", Origin: origin, Write: write, Token: &tok,
			}
			dp := proxy.Handle(req, now)
			latP.Observe(dp.Latency)
			if !dp.Allowed {
				deniedP++
			}
			db := baseline.Handle(req, now)
			latB.Observe(db.Latency)
			if !db.Allowed {
				deniedB++
			}
		}
		t.AddRow(fmt.Sprint(nReq), "xlf-proxy", latP.Mean().String(), latP.Quantile(0.95).String(), fmt.Sprint(deniedP))
		t.AddRow(fmt.Sprint(nReq), "baseline", latB.Mean().String(), latB.Quantile(0.95).String(), fmt.Sprint(deniedB))
		if nReq == 5000 {
			r.num("proxy_mean_ms", float64(latP.Mean())/1e6)
			r.num("baseline_mean_ms", float64(latB.Mean())/1e6)
		}
	}
	hits, fills, denials := proxy.Stats()
	r.Output = t.String() + fmt.Sprintf(
		"\nproxy cache: %d hits, %d fills, %d denials; baseline on-device SSO verify on the bulb: %s\n",
		hits, fills, denials, deviceVerify.Truncate(time.Microsecond))
	return r
}
