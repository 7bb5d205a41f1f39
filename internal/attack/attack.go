// Package attack implements the testbed's adversary: every vulnerability /
// attack / impact row of the paper's Table II, plus the network- and
// service-layer attacks of §III (Mirai-style recruitment, DNS cache
// poisoning, event spoofing, over-privileged apps, OTA tampering, DDoS).
// Attacks run against the live testbed and generate real packets and
// platform calls, so XLF's detectors observe exactly what a deployed
// system would.
package attack

import (
	"fmt"
	"time"

	"xlf/internal/device"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/service"
	"xlf/internal/sim"
)

// Layer tags where an attack enters the system (Figure 3 mapping).
type Layer string

// Attack-surface layers.
const (
	LayerDevice  Layer = "device"
	LayerNetwork Layer = "network"
	LayerService Layer = "service"
)

// Env is the attacker's view of the testbed: the same objects the
// legitimate system runs on.
type Env struct {
	Kernel  *sim.Kernel
	Net     *netsim.Network
	Gateway *netsim.Gateway
	Devices map[string]*device.Device
	Cloud   *service.Cloud
	OTA     *service.OTAPipeline

	// AttackerWAN/AttackerLAN are pre-attached attacker footholds.
	AttackerWAN netsim.Addr
	AttackerLAN netsim.Addr

	// Detections, when set, timestamps each successful attack's first
	// touch of a victim device, so the telemetry pipeline can measure
	// end-to-end detection latency per attack class. Nil disables.
	Detections *obs.DetectionTracker
}

// MarkInjection records ground truth for the detection-latency SLO: the
// attack of the given class reached device at the current sim instant.
// Attacks call it at their success sites; a nil tracker no-ops.
func (e *Env) MarkInjection(class, deviceID string) {
	if e.Detections == nil {
		return
	}
	e.Detections.Inject(e.Kernel.Now(), class, deviceID)
}

// Device fetches a target device or fails the attack gracefully.
func (e *Env) Device(id string) (*device.Device, error) {
	d, ok := e.Devices[id]
	if !ok {
		return nil, fmt.Errorf("attack: no device %q in testbed", id)
	}
	return d, nil
}

// Result is the outcome of one attack execution.
type Result struct {
	Attack    string
	Succeeded bool
	// Impact mirrors Table II's impact column when the attack succeeds.
	Impact string
	// Blocked names the defence that stopped it, when one did.
	Blocked string
	// Loot carries stolen artifacts (credentials, keys) for verification.
	Loot map[string]string
}

func (r Result) String() string {
	if r.Succeeded {
		return fmt.Sprintf("%s: SUCCESS — %s", r.Attack, r.Impact)
	}
	return fmt.Sprintf("%s: BLOCKED — %s", r.Attack, r.Blocked)
}

// Attack is a scripted adversarial action.
type Attack interface {
	// Name identifies the attack.
	Name() string
	// Layer is the attack-surface layer (Figure 3).
	Layer() Layer
	// TableII returns the (vulnerability, method, impact) triple for the
	// Table II reproduction; empty strings for §III attacks not in the
	// table.
	TableII() (vuln, method, impact string)
	// Execute runs the attack against the environment. The returned
	// Result reflects ground truth; detection is judged separately by the
	// XLF side.
	Execute(env *Env) Result
}

// sendLAN emits a LAN packet from the attacker foothold.
func sendLAN(env *Env, dst netsim.Addr, dstPort int, protoName string, size int, payload []byte, app string) {
	env.Net.Send(&netsim.Packet{
		Src: env.AttackerLAN, Dst: dst, SrcPort: 6666, DstPort: dstPort,
		Proto: protoName, Size: size, Payload: payload, App: app,
	})
}

// StaticPasswordMitM is Table II row 1: the smart bulb's static default
// password crosses the LAN in cleartext; an on-path attacker reads it and
// takes over the bulb.
type StaticPasswordMitM struct {
	Target string
	// Sniffed is the credential material observed on the wire; the
	// testbed primes it by having the user's app log in over cleartext
	// HTTP (the attack taps that exchange).
	Sniffed device.Credentials
}

var _ Attack = (*StaticPasswordMitM)(nil)

// Name implements Attack.
func (a *StaticPasswordMitM) Name() string { return "mitm-password-stealing" }

// Layer implements Attack.
func (a *StaticPasswordMitM) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *StaticPasswordMitM) TableII() (string, string, string) {
	return "Static password", "MitM, password stealing", "Bulb controlled by remote"
}

// Execute implements Attack.
func (a *StaticPasswordMitM) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	// The sniffing only works if the bulb exposes a cleartext channel.
	cleartext := false
	for _, p := range d.Ports {
		if p.Cleartext {
			cleartext = true
		}
	}
	if !cleartext {
		return Result{Attack: a.Name(), Blocked: "no cleartext channel to sniff"}
	}
	creds := a.Sniffed
	if creds == (device.Credentials{}) {
		creds = d.Creds // simulation shortcut: the wire carried the login
	}
	if !d.Login(creds.User, creds.Password) {
		return Result{Attack: a.Name(), Blocked: "credentials rotated / login refused"}
	}
	// Remote control: command the bulb outside any legitimate path.
	sendLAN(env, netsim.Addr("lan:"+a.Target), 80, "HTTP", 90,
		[]byte(fmt.Sprintf("POST /login user=%s pass=%s; PUT /state on", creds.User, creds.Password)), "attack:bulb-takeover")
	d.ForceState("on")
	d.Compromise("remote-controller")
	env.MarkInjection("mitm-password", a.Target)
	return Result{
		Attack: a.Name(), Succeeded: true,
		Impact: "Bulb controlled by remote",
		Loot:   map[string]string{"user": creds.User, "password": creds.Password},
	}
}

// BufferOverflow is Table II row 2: the wall pad's control parser copies
// attacker input unchecked; a long message overwrites a return address and
// executes shellcode that unlocks the home.
type BufferOverflow struct {
	Target string
	// PayloadLen is the attacker's message length; the vulnerable parser
	// has a 256-byte stack buffer.
	PayloadLen int
}

var _ Attack = (*BufferOverflow)(nil)

// Name implements Attack.
func (a *BufferOverflow) Name() string { return "wallpad-buffer-overflow" }

// Layer implements Attack.
func (a *BufferOverflow) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *BufferOverflow) TableII() (string, string, string) {
	return "Buffer overflow", "Value manipulation, shellcode exe.", "Housebreaking, monitoring"
}

// Execute implements Attack.
func (a *BufferOverflow) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	if !d.HasOpenPort("control") {
		return Result{Attack: a.Name(), Blocked: "control port closed by NAC"}
	}
	if a.PayloadLen <= 256 {
		return Result{Attack: a.Name(), Blocked: "payload fits the buffer; parser survives"}
	}
	// Patched firmware bounds-checks the copy.
	if d.Firmware.Version >= "3.0.0" {
		return Result{Attack: a.Name(), Blocked: "patched firmware bounds-checks input"}
	}
	// Classic overflow shape: filler sled up to the return address, then
	// the payload marker.
	payload := make([]byte, a.PayloadLen)
	for i := range payload {
		payload[i] = 'A'
	}
	copy(payload[a.PayloadLen-20:], []byte("shellcode:unlock"))
	sendLAN(env, netsim.Addr("lan:"+a.Target), 5000, "control", a.PayloadLen, payload, "attack:overflow")
	d.Compromise("shellcode")
	d.ForceState("unlocked")
	env.MarkInjection("overflow", a.Target)
	return Result{Attack: a.Name(), Succeeded: true, Impact: "Housebreaking, monitoring"}
}

// FirmwareModulation is Table II row 3: the camera accepts firmware images
// without integrity verification; the attacker ships a modified image.
type FirmwareModulation struct {
	Target string
}

var _ Attack = (*FirmwareModulation)(nil)

// Name implements Attack.
func (a *FirmwareModulation) Name() string { return "camera-firmware-modulation" }

// Layer implements Attack.
func (a *FirmwareModulation) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *FirmwareModulation) TableII() (string, string, string) {
	return "Firmware integrity", "Firmware modulation", "Damage peripherals"
}

// Execute implements Attack.
func (a *FirmwareModulation) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	evil := service.OTAImage{Version: "3.0.1-evil", Data: []byte("FWIMG-UNSIGNED backdoor for " + a.Target)}
	// Ship it through the platform's OTA path; a hardened pipeline
	// rejects the unsigned image.
	if env.OTA != nil {
		if err := env.OTA.Push(a.Target, evil); err != nil {
			return Result{Attack: a.Name(), Blocked: fmt.Sprintf("OTA pipeline: %v", err)}
		}
	}
	// The image also crosses the network, where DPI can see its marker.
	sendLAN(env, netsim.Addr("lan:"+a.Target), 80, "HTTP", len(evil.Data)+64, evil.Data, "attack:ota-tamper")
	d.Firmware = device.Firmware{Version: evil.Version, Hash: 0, Signed: false, Tampered: true, BuildData: evil.Data}
	d.Compromise("modded-firmware")
	env.MarkInjection("ota-tamper", a.Target)
	return Result{Attack: a.Name(), Succeeded: true, Impact: "Damage peripherals"}
}

// Rickrolling is Table II row 4: the Chromecast's open pairing lets anyone
// who can deauth it re-pair it to an attacker hotspot and stream content.
type Rickrolling struct {
	Target string
}

var _ Attack = (*Rickrolling)(nil)

// Name implements Attack.
func (a *Rickrolling) Name() string { return "chromecast-rickrolling" }

// Layer implements Attack.
func (a *Rickrolling) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *Rickrolling) TableII() (string, string, string) {
	return "Rickrolling", "D/C & reconnects to attacker", "Privacy violation"
}

// Execute implements Attack.
func (a *Rickrolling) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	if !d.HasOpenPort("cast") {
		return Result{Attack: a.Name(), Blocked: "cast port protected"}
	}
	// Deauth burst then forced cast session from the attacker.
	for i := 0; i < 20; i++ {
		sendLAN(env, netsim.Addr("lan:"+a.Target), 8008, "cast", 40, []byte("DEAUTH"), "attack:deauth")
	}
	sendLAN(env, netsim.Addr("lan:"+a.Target), 8008, "cast", 2048, []byte("CAST rick.mp4"), "attack:forced-cast")
	if err := d.Apply("cast"); err != nil {
		d.ForceState("playing")
	}
	env.MarkInjection("rickrolling", a.Target)
	return Result{Attack: a.Name(), Succeeded: true, Impact: "Privacy violation"}
}

// UPnPSniff is Table II row 5: the coffee machine provisions WiFi over an
// unprotected UPnP exchange; a listener captures the WiFi password.
type UPnPSniff struct {
	Target string
	// WiFiPassword is what the provisioning exchange carries.
	WiFiPassword string
}

var _ Attack = (*UPnPSniff)(nil)

// Name implements Attack.
func (a *UPnPSniff) Name() string { return "coffee-upnp-sniff" }

// Layer implements Attack.
func (a *UPnPSniff) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *UPnPSniff) TableII() (string, string, string) {
	return "Unprotected channel", "Listens to UPnP", "Hijack password of Wi-Fi"
}

// Execute implements Attack.
func (a *UPnPSniff) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	if !d.HasOpenPort("upnp") {
		return Result{Attack: a.Name(), Blocked: "UPnP disabled"}
	}
	pw := a.WiFiPassword
	if pw == "" {
		pw = "home-wifi-passphrase"
	}
	// The device broadcasts its provisioning beacon; the attacker need
	// only listen (we reproduce the broadcast so taps record it).
	src := netsim.Addr("lan:" + a.Target)
	env.Net.Broadcast(src, func(dst netsim.Addr) *netsim.Packet {
		return env.Net.NewPacket(netsim.Packet{
			Src: src, Dst: dst, SrcPort: 1900, DstPort: 1900,
			Proto: "UPnP", Size: 180, Payload: []byte("SSID=home PSK=" + pw), App: "provisioning",
		})
	})
	env.MarkInjection("upnp-sniff", a.Target)
	return Result{
		Attack: a.Name(), Succeeded: true,
		Impact: "Hijack password of Wi-Fi",
		Loot:   map[string]string{"wifi-psk": pw},
	}
}

// MaliciousMail is Table II row 6: the fridge's generic authentication
// admits a malicious login that plants spam-sending code.
type MaliciousMail struct {
	Target string
	// Burst is how many spam messages the infection sends.
	Burst int
}

var _ Attack = (*MaliciousMail)(nil)

// Name implements Attack.
func (a *MaliciousMail) Name() string { return "fridge-malicious-mail" }

// Layer implements Attack.
func (a *MaliciousMail) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *MaliciousMail) TableII() (string, string, string) {
	return "Generic auth.", "Malicious code infection", "Send malicious mail"
}

// Execute implements Attack.
func (a *MaliciousMail) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	if !d.Creds.Default {
		return Result{Attack: a.Name(), Blocked: "credentials rotated"}
	}
	if !d.Login(d.Creds.User, d.Creds.Password) {
		return Result{Attack: a.Name(), Blocked: "login refused"}
	}
	d.Compromise("spambot")
	burst := a.Burst
	if burst <= 0 {
		burst = 50
	}
	src := netsim.Addr("lan:" + a.Target)
	for i := 0; i < burst; i++ {
		i := i
		env.Kernel.Schedule(time.Duration(i)*200*time.Millisecond, "spam", func() {
			env.Gateway.SendOut(env.Net, env.Net.NewPacket(netsim.Packet{
				Src: src, SrcPort: 2525,
				Dst: netsim.Addr(fmt.Sprintf("wan:mx-%d", i%25)), DstPort: 25,
				Proto: "SMTP", Size: 900,
				Payload: []byte("buy pills now http://spam.example/" + fmt.Sprint(i)),
				App:     "attack:spam",
			}))
		})
	}
	env.MarkInjection("spam", a.Target)
	return Result{Attack: a.Name(), Succeeded: true, Impact: "Send malicious mail"}
}

// OpenWiFiMitM is Table II row 7: the oven joins an unsecured WiFi; a MitM
// on that network pivots to reach other home devices.
type OpenWiFiMitM struct {
	Target string
	// Pivot is the second device the attacker reaches through the oven's
	// network position.
	Pivot string
}

var _ Attack = (*OpenWiFiMitM)(nil)

// Name implements Attack.
func (a *OpenWiFiMitM) Name() string { return "oven-open-wifi-mitm" }

// Layer implements Attack.
func (a *OpenWiFiMitM) Layer() Layer { return LayerDevice }

// TableII implements Attack.
func (a *OpenWiFiMitM) TableII() (string, string, string) {
	return "Unsecured Wi-Fi", "MitM attack", "Access other devices"
}

// Execute implements Attack.
func (a *OpenWiFiMitM) Execute(env *Env) Result {
	d, err := env.Device(a.Target)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	// Hardened homes put the oven behind WPA2; the testbed marks the
	// open-network condition with the oven's cleartext HTTP port.
	open := false
	for _, p := range d.Ports {
		if p.Cleartext {
			open = true
		}
	}
	if !open {
		return Result{Attack: a.Name(), Blocked: "network encrypted (WPA2)"}
	}
	pivot, err := env.Device(a.Pivot)
	if err != nil {
		return Result{Attack: a.Name(), Blocked: err.Error()}
	}
	d.Compromise("mitm-foothold")
	// Lateral service sweep: the attacker pivots THROUGH the oven, so the
	// probes carry the oven's own address — which is also what lets the
	// network layer attribute the scan to it.
	for i := 0; i < 15; i++ {
		env.Net.Send(&netsim.Packet{
			Src: netsim.Addr("lan:" + a.Target), Dst: netsim.Addr("lan:" + a.Pivot),
			SrcPort: 6666, DstPort: 80 + i,
			Proto: "TCP", Size: 60, App: "attack:lateral-probe",
		})
	}
	_ = pivot
	env.MarkInjection("mitm-pivot", a.Target)
	return Result{Attack: a.Name(), Succeeded: true, Impact: "Access other devices"}
}

// TableIIAttacks returns one configured instance per Table II row, wired
// to the canonical catalog device IDs.
func TableIIAttacks() []Attack {
	return []Attack{
		&StaticPasswordMitM{Target: "bulb-1"},
		&BufferOverflow{Target: "wallpad-1", PayloadLen: 1024},
		&FirmwareModulation{Target: "cam-1"},
		&Rickrolling{Target: "cast-1"},
		&UPnPSniff{Target: "coffee-1"},
		&MaliciousMail{Target: "fridge-1", Burst: 40},
		&OpenWiFiMitM{Target: "oven-1", Pivot: "window-1"},
	}
}
