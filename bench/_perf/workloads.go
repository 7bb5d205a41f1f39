package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/obs"
	"xlf/internal/service"
	"xlf/internal/sim"
	"xlf/internal/testbed"
	"xlf/internal/xauth"
)

// scale sizes one round of each workload. A round is the unit the
// harness repeats for as long as a run measures, so it is small enough
// to fit several rounds in a run and large enough that each round's host
// time is well above timer and scheduling noise.
type scale struct {
	homes    int           // home: protected homes per round, in sequence
	days     int           // home: simulated days per home
	flood    time.Duration // storm: flood duration
	devices  int           // city: sensors
	requests int           // auth: access requests
}

// fullScale is what the benchmark runs; tinyScale keeps tests fast.
var (
	fullScale = scale{homes: 2, days: 2, flood: 2 * time.Minute, devices: 200_000, requests: 400_000}
	tinyScale = scale{homes: 1, days: 1, flood: time.Minute, devices: 10_000, requests: 10_000}
)

// detectWindow is how long after its attack a victim may go unalerted
// before it counts as missed.
const detectWindow = 10 * time.Minute

// workloads maps each -workload name to its round.
var workloads = map[string]roundFunc{
	"home":  homeRound,
	"storm": stormRound,
	"city":  cityRound,
	"auth":  authRound,
}

// outcome is everything a round computes that is a function of the seed
// alone: every round of a run, traced or not, must produce the same one.
type outcome struct {
	events uint64 // kernel events in the timed run

	attempted, failed uint64

	netDelivered, netDropped, netBytes                  uint64
	coreIngested, coreAlerts, coreContained, nacDenials uint64
	idsAlerts                                           uint64
	xauthIssued, xauthRefused, proxyHits, proxyFills    uint64
	citySent, cityDelivered                             uint64

	detectP50, detectP90 time.Duration
	falseAlerts          uint64
}

// addSystem adds one protected home's layer counters.
func (o *outcome) addSystem(sys *xlf.System) {
	d, dr, b := sys.Home.Net.Stats()
	o.netDelivered += d
	o.netDropped += dr
	o.netBytes += b
	st := sys.Core.Stats()
	o.coreIngested += st.Ingested
	o.coreAlerts += st.Alerts
	o.coreContained += st.Contained
	o.nacDenials += sys.NAC.Denials()
	o.idsAlerts += uint64(len(sys.IDS.Alerts()))
	issued, refused := sys.Authority.Stats()
	o.xauthIssued += issued
	o.xauthRefused += refused
	hits, fills, _ := sys.Proxy.Stats()
	o.proxyHits += hits
	o.proxyFills += fills
}

// vulnerableFlaws is the legacy platform E1, E8 and E9 protect.
func vulnerableFlaws() service.Flaws {
	return service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}
}

// campaign is E1's five-attack campaign; its victims are cam-1,
// wallpad-1, window-1 and fridge-1.
func campaign() []attack.Attack {
	return []attack.Attack{
		&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second},
		&attack.FirmwareModulation{Target: "cam-1"},
		&attack.BufferOverflow{Target: "wallpad-1", PayloadLen: 1024},
		&attack.RogueApp{
			AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
			TargetDevice: "window-1", TargetCommand: "unlock",
		},
		&attack.MaliciousMail{Target: "fridge-1", Burst: 40},
	}
}

// truth is one home's ground truth: when each victim was first attacked,
// and when and on which device the Core raised each alert. It keeps no
// alert evidence alive, so it adds nothing to the live heap it measures.
type truth struct {
	attacked map[string]time.Duration
	alerts   []alertAt
}

type alertAt struct {
	at     time.Duration
	device string
}

// watch starts recording a system's alerts through Core.OnAlert.
func watch(sys *xlf.System) *truth {
	t := &truth{attacked: make(map[string]time.Duration)}
	sys.Core.OnAlert = func(a core.Alert) { t.alerts = append(t.alerts, alertAt{a.Time, a.DeviceID}) }
	return t
}

// launch schedules attacks at start, 60 s apart, recording the victims
// of each one that succeeds at the instant it executes.
func (t *truth) launch(sys *xlf.System, start time.Duration, atks ...attack.Attack) {
	env := sys.Home.AttackEnv()
	for i, a := range atks {
		sys.Home.Kernel.Schedule(start+time.Duration(i)*time.Minute, "attack:"+a.Name(), func() {
			if !a.Execute(env).Succeeded {
				return
			}
			for _, v := range victims(a, env) {
				if _, seen := t.attacked[v]; !seen {
					t.attacked[v] = env.Kernel.Now()
				}
			}
		})
	}
}

// victims names the devices a successful attack touched.
func victims(a attack.Attack, env *attack.Env) []string {
	switch a := a.(type) {
	case *attack.MiraiRecruit:
		return a.Recruited()
	case *attack.FirmwareModulation:
		return []string{a.Target}
	case *attack.BufferOverflow:
		return []string{a.Target}
	case *attack.RogueApp:
		return []string{a.TargetDevice}
	case *attack.MaliciousMail:
		return []string{a.Target}
	case *attack.DDoSFlood:
		// With no Bots set, the flood recruits every compromised device.
		var bots []string
		for id, d := range env.Devices {
			if d.Compromised {
				bots = append(bots, id)
			}
		}
		return bots
	}
	panic(fmt.Sprintf("perf: no victim rule for attack %T", a))
}

// score adds the home's detection latencies to lat and its attempts,
// misses and false alerts to o. A victim is detected by the first alert
// naming it at or after its attack, and missed without one within
// detectWindow.
func (t *truth) score(o *outcome, lat *[]time.Duration) {
	first := make(map[string]time.Duration)
	for _, a := range t.alerts {
		at, ok := t.attacked[a.device]
		if !ok {
			o.falseAlerts++
			continue
		}
		if _, done := first[a.device]; !done && a.at >= at {
			first[a.device] = a.at
		}
	}
	for v, at := range t.attacked {
		o.attempted++
		seen, ok := first[v]
		if !ok || seen-at > detectWindow {
			o.failed++
			continue
		}
		*lat = append(*lat, seen-at)
	}
}

// setDetect fills the detection percentiles from exact latencies.
func (o *outcome) setDetect(lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	o.detectP50 = quantile(lat, 0.50)
	o.detectP90 = quantile(lat, 0.90)
}

// homeRound runs protected homes in sequence, each for sc.days of E9's
// diurnal household with lightweight encryption on, with E1's campaign
// starting 30 s into the last day.
func homeRound(seed int64, sc scale, m *meter) (outcome, error) {
	var o outcome
	var lat []time.Duration
	horizon := time.Duration(sc.days) * 24 * time.Hour
	for i := 0; i < sc.homes; i++ {
		var sys *xlf.System
		var gt *truth
		err := m.build(func() (err error) {
			sys, err = xlf.New(xlf.Options{
				Seed: seed + int64(i), Flaws: vulnerableFlaws(), LightweightEncryption: true,
			})
			if err != nil {
				return err
			}
			sys.Home.ScheduleWorkload(sys.Home.GenerateWorkload(testbed.WorkloadConfig{Days: sc.days, Intensity: 1}))
			gt = watch(sys)
			gt.launch(sys, horizon-24*time.Hour+30*time.Second, campaign()...)
			return nil
		})
		if err != nil {
			return o, err
		}
		replay := m.probes != nil && !m.probes.replayed
		m.probes.wrap(sys)
		if replay {
			sys.Home.LANCap.IncludePayloads = true
		}
		if err := m.run(func() error { return sys.Home.Run(horizon) }); err != nil {
			return o, err
		}
		m.settle()
		o.events += sys.Home.Kernel.Processed()
		o.addSystem(sys)
		gt.score(&o, &lat)
		if replay {
			if err := m.probes.replay(sys); err != nil {
				return o, err
			}
		}
	}
	o.setDetect(lat)
	return o, nil
}

// stormRound runs one home whose Core alerts but never contains
// (ContainThreshold above 1), under E1's campaign from 30 s and then a
// 100 pps flood (E8's rate) from every compromised device from 6 min.
// Every flood packet is a NAC denial and so one Core.Ingest.
func stormRound(seed int64, sc scale, m *meter) (outcome, error) {
	var o outcome
	var sys *xlf.System
	var gt *truth
	err := m.build(func() (err error) {
		cfg := core.DefaultConfig()
		cfg.ContainThreshold = 1.01
		sys, err = xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws(), CoreConfig: cfg})
		if err != nil {
			return err
		}
		gt = watch(sys)
		gt.launch(sys, 30*time.Second, campaign()...)
		gt.launch(sys, 6*time.Minute, &attack.DDoSFlood{Victim: "wan:victim", Rate: 100, Duration: sc.flood})
		return nil
	})
	if err != nil {
		return o, err
	}
	m.probes.wrap(sys)
	if err := m.run(func() error { return sys.Home.Run(6*time.Minute + sc.flood) }); err != nil {
		return o, err
	}
	m.settle()
	o.events = sys.Home.Kernel.Processed()
	o.addSystem(sys)
	var lat []time.Duration
	gt.score(&o, &lat)
	o.setDetect(lat)
	return o, nil
}

// cityRound runs E10's telemetry configuration: report-only sensors on
// one kernel for 60 simulated seconds with 1 s rollups and the default
// flood + exfiltration timeline, detected by the city's sink-side
// detector.
func cityRound(seed int64, sc scale, m *meter) (outcome, error) {
	var o outcome
	var city *testbed.City
	err := m.build(func() (err error) {
		city, err = testbed.NewCity(testbed.CityConfig{
			Seed:           seed,
			Devices:        sc.devices,
			ReportEvery:    10 * time.Second,
			Horizon:        time.Minute,
			RollupInterval: time.Second,
			Attacks:        testbed.DefaultCityAttacks(),
		})
		return err
	})
	if err != nil {
		return o, err
	}
	var st testbed.CityStats
	if err := m.run(func() (err error) {
		st, err = city.Run()
		return err
	}); err != nil {
		return o, err
	}
	m.settle()
	if st.Dropped != 0 {
		return o, fmt.Errorf("%w: city dropped %d of %d reports", errIncorrect, st.Dropped, st.Sent)
	}
	o.events = st.Events
	o.attempted = st.Sent
	o.failed = st.Dropped
	o.netDelivered, o.netDropped, o.netBytes = city.Net.Stats()
	o.citySent, o.cityDelivered = st.Sent, st.Delivered

	tel := city.Telemetry()
	var buckets []obs.HistBucket
	for _, h := range tel.Registry.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, obs.DetectionHistPrefix) {
			buckets = append(buckets, h.Buckets...)
		}
	}
	o.detectP50 = time.Duration(obs.QuantileBuckets(buckets, 0.50))
	o.detectP90 = time.Duration(obs.QuantileBuckets(buckets, 0.90))
	return o, nil
}

// authUsers is E3's population: 20 users, every 4th Advanced with MFA.
func authUsers() []xauth.User {
	users := make([]xauth.User, 0, 20)
	for i := 0; i < 20; i++ {
		u := xauth.User{Name: fmt.Sprintf("user-%d", i), Password: fmt.Sprintf("pw-%d", i), Priv: xauth.Basic}
		if i%4 == 0 {
			u.Priv = xauth.Advanced
			u.MFASecret = fmt.Sprintf("mfa-%d", i)
		}
		users = append(users, u)
	}
	return users
}

// authRound builds one protected home with E3's users and runs E1's
// campaign for 12 simulated minutes as set-up, so the Core holds real
// alerts. The timed run then issues sc.requests access requests on the
// kernel, 1 ms apart, with E3's mix.
func authRound(seed int64, sc scale, m *meter) (outcome, error) {
	var o outcome
	var sys *xlf.System
	var gt *truth
	var load *authLoad
	err := m.build(func() (err error) {
		users := authUsers()
		sys, err = xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws(), Users: users})
		if err != nil {
			return err
		}
		gt = watch(sys)
		gt.launch(sys, 30*time.Second, campaign()...)
		if err := sys.Home.Run(12 * time.Minute); err != nil {
			return err
		}
		load = newAuthLoad(sys, users, seed, sc.requests, m.probes)
		return nil
	})
	if err != nil {
		return o, err
	}
	m.probes.wrap(sys)
	before := sys.Home.Kernel.Processed()
	end := sys.Home.Kernel.Now() + time.Duration(sc.requests)*time.Millisecond
	if err := m.run(func() error { return sys.Home.Run(end) }); err != nil {
		return o, err
	}
	m.settle()
	if load.err != nil {
		return o, fmt.Errorf("%w: %v", errIncorrect, load.err)
	}
	if load.done != sc.requests {
		return o, fmt.Errorf("%w: %d of %d requests ran", errIncorrect, load.done, sc.requests)
	}
	o.events = sys.Home.Kernel.Processed() - before
	o.addSystem(sys)
	var lat []time.Duration
	gt.score(&o, &lat)
	o.setDetect(lat)
	// The round's attempts are its requests, not the set-up campaign's
	// victims.
	o.attempted, o.failed = uint64(load.done), uint64(load.refused)
	return o, nil
}

// authLoad is the auth workload's request generator: one kernel ticker,
// one request per tick.
type authLoad struct {
	sys     *xlf.System
	users   []xauth.User
	devices []string
	rng     *rand.Rand
	tokens  []xauth.Token // per (user, device)
	probes  *probes

	total, done, refused int
	err                  error
}

func newAuthLoad(sys *xlf.System, users []xauth.User, seed int64, total int, p *probes) *authLoad {
	l := &authLoad{
		sys:    sys,
		users:  users,
		rng:    rand.New(rand.NewSource(seed)),
		probes: p,
		total:  total,
	}
	for id := range sys.Home.Devices {
		l.devices = append(l.devices, id)
	}
	sort.Strings(l.devices)
	l.tokens = make([]xauth.Token, len(users)*len(l.devices))
	var tick *sim.Ticker
	tick = sys.Home.Kernel.Every(time.Millisecond, 0, "auth-request", func() {
		l.request()
		if l.done == l.total {
			tick.Stop()
		}
	})
	return l
}

// request issues one access request: a random user and catalog device,
// from the WAN 1 in 5, a write 1 in 4 for Advanced users. The user first
// authenticates when their token for that device is missing or expired.
func (l *authLoad) request() {
	l.done++
	now := l.sys.Home.Kernel.Now()
	ui, di := l.rng.Intn(len(l.users)), l.rng.Intn(len(l.devices))
	u, dev := l.users[ui], l.devices[di]
	write := u.Priv == xauth.Advanced && l.rng.Intn(4) == 0
	origin := xauth.FromLAN
	if l.rng.Intn(5) == 0 {
		origin = xauth.FromWAN
	}
	tok := &l.tokens[ui*len(l.devices)+di]
	if tok.Sig == nil || now > tok.ExpiresAt {
		mfa := ""
		if u.MFASecret != "" {
			mfa, _ = l.sys.Authority.MFACodeFor(u.Name, now) // u is enrolled, so this cannot fail
		}
		t0 := l.probes.start()
		issued, err := l.sys.Authority.Authenticate(u.Name, u.Password, mfa, dev, now)
		l.probes.stop("xauth.authenticate", t0)
		if err != nil {
			if l.err == nil {
				l.err = fmt.Errorf("authenticate %s for %s: %w", u.Name, dev, err)
			}
			l.refused++
			return
		}
		*tok = issued
	}
	t0 := l.probes.start()
	d := l.sys.Proxy.Handle(xauth.AccessRequest{User: u.Name, DeviceID: dev, Origin: origin, Write: write, Token: tok}, now)
	l.probes.stop("xauth.handle", t0)
	if !d.Allowed {
		l.refused++
	}
}
