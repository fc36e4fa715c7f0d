package webgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Tracker-script generation. Every service exposes script variants at
// /js/tag<N>.js; the content is deterministic per (service, variant) except
// for the visitor identifier, which the server templates into the script
// exactly like real trackers template account and visitor IDs into their
// snippets. The scripts are interpreted by internal/jsvm during the crawl,
// so whatever they do is what the instrumentation records.

var canvasTexts = []string{
	"Cwm fjordbank glyphs vext quiz 1234567890",
	"How quickly daft jumping zebras vex!?",
	"Sphinx of black quartz, judge my vow 98765",
	"Pack my box with five dozen liquor jugs <canvas> 1.0",
	"Jackdaws love my big sphinx of quartz #fingerprint",
	"The five boxing wizards jump quickly @0123456789",
}

var canvasColors = []string{"#f60", "#069", "#ff0066", "rgb(10,20,30)", "#123456", "rgba(255,0,102,0.7)", "#0f9d58", "#222"}

// scriptRNG derives a deterministic pooled RNG for a (service, variant)
// pair.
func scriptRNG(host string, variant int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(host))
	h.Write([]byte{byte(variant), byte(variant >> 8)})
	return pooledRNG(h.Sum64())
}

// canvasFPScript emits a canvas-fingerprinting script satisfying the
// Englehardt criteria: canvas >= 16px, >= 2 colors, > 10 distinct text
// characters, a toDataURL or large getImageData call, and no
// save/restore/addEventListener.
func canvasFPScript(host string, variant int, uid, beaconURL string) string {
	rng := scriptRNG(host, variant)
	defer rngPool.Put(rng)
	text := canvasTexts[rng.Intn(len(canvasTexts))]
	c1 := canvasColors[rng.Intn(len(canvasColors))]
	c2 := canvasColors[rng.Intn(len(canvasColors))]
	for c2 == c1 {
		c2 = canvasColors[rng.Intn(len(canvasColors))]
	}
	w := 200 + rng.Intn(400)
	hgt := 40 + rng.Intn(200)
	var b strings.Builder
	fmt.Fprintf(&b, "var cv = document.createElement('canvas');\n")
	fmt.Fprintf(&b, "cv.width = %d;\ncv.height = %d;\n", w, hgt)
	b.WriteString("var ctx = cv.getContext('2d');\n")
	fmt.Fprintf(&b, "ctx.fillStyle = '%s';\nctx.fillRect(%d, 1, 62, 20);\n", c1, rng.Intn(100))
	fmt.Fprintf(&b, "ctx.fillStyle = '%s';\nctx.fillText(\"%s\", 2, 15);\n", c2, text)
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "var px = ctx.getImageData(0, 0, %d, %d);\n", w, hgt)
	} else {
		b.WriteString("var fp = cv.toDataURL();\n")
	}
	fmt.Fprintf(&b, "var img = new Image();\nimg.src = '%s?cfp=' + '%s';\n", beaconURL, uid)
	return b.String()
}

// benignCanvasScript draws UI decoration that must NOT be classified as
// fingerprinting: tiny canvas, single color, save/restore usage.
func benignCanvasScript(host string, variant int) string {
	rng := scriptRNG(host, variant+1000)
	defer rngPool.Put(rng)
	var b strings.Builder
	b.WriteString("var cv = document.createElement('canvas');\n")
	fmt.Fprintf(&b, "cv.width = %d;\ncv.height = %d;\n", 8+rng.Intn(7), 8+rng.Intn(7))
	b.WriteString("var ctx = cv.getContext('2d');\n")
	b.WriteString("ctx.save();\n")
	fmt.Fprintf(&b, "ctx.fillStyle = '%s';\n", canvasColors[rng.Intn(len(canvasColors))])
	b.WriteString("ctx.fillRect(0, 0, 8, 8);\n")
	b.WriteString("ctx.restore();\n")
	b.WriteString("cv.addEventListener('click', handler);\n")
	return b.String()
}

// fontFPScript probes installed fonts by measuring the same string with
// many different font settings (>= 50 measureText calls on one text).
func fontFPScript(uid, beaconURL string) string {
	var b strings.Builder
	b.WriteString("var cv = document.createElement('canvas');\n")
	b.WriteString("var ctx = cv.getContext('2d');\n")
	b.WriteString("for (var i = 0; i < 64; i++) {\n")
	b.WriteString("  ctx.font = '12px probefont' + i;\n")
	b.WriteString("  ctx.measureText('mmmmmmmmmmlli');\n")
	b.WriteString("}\n")
	fmt.Fprintf(&b, "var img = new Image();\nimg.src = '%s?ffp=' + '%s';\n", beaconURL, uid)
	return b.String()
}

// webrtcScript harvests local network candidates via RTCPeerConnection.
func webrtcScript(host string, variant int, uid, beaconURL string) string {
	rng := scriptRNG(host, variant+2000)
	defer rngPool.Put(rng)
	var b strings.Builder
	b.WriteString("var pc = new RTCPeerConnection();\n")
	b.WriteString("pc.createDataChannel('');\n")
	b.WriteString("pc.onicecandidate = onCand;\n")
	b.WriteString("pc.createOffer();\n")
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "navigator.sendBeacon('%s?rtc=' + '%s');\n", beaconURL, uid)
	} else {
		fmt.Fprintf(&b, "fetch('%s?rtc=' + '%s');\n", beaconURL, uid)
	}
	return b.String()
}

// analyticsScript is the plain audience-measurement tag: reads
// fingerprintable properties, sets a cookie via document.cookie and beacons.
func analyticsScript(host string, variant int, uid, beaconURL string, cookieName string) string {
	rng := scriptRNG(host, variant+3000)
	defer rngPool.Put(rng)
	var b strings.Builder
	b.WriteString("var ua = navigator.userAgent;\n")
	b.WriteString("var sw = screen.width;\n")
	b.WriteString("var sh = screen.height;\n")
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "document.cookie = '%s=%s; path=/; max-age=31536000';\n", cookieName, uid)
	}
	fmt.Fprintf(&b, "var img = new Image();\nimg.src = '%s?uid=%s&sw=' + sw + '&sh=' + sh;\n", beaconURL, uid)
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "localStorage.setItem('%s_ls', '%s');\n", cookieName, uid)
	}
	return b.String()
}

// minerScript mimics a browser cryptominer bootstrap.
func minerScript(host, uid string, scheme string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var minerKey = '%s';\n", uid)
	fmt.Fprintf(&b, "fetch('%s://%s/lib/worker.wasm?key=' + minerKey);\n", scheme, host)
	fmt.Fprintf(&b, "var hashrate = 0;\n")
	return b.String()
}

// adScript injects a banner and fires an impression pixel. The pixel
// carries the publisher site (real ad tags know their placement), which is
// what lets the server's per-site sync gating apply to impressions too.
func adScript(host string, variant int, uid, pixelURL, site string) string {
	rng := scriptRNG(host, variant+4000)
	defer rngPool.Put(rng)
	var b strings.Builder
	fmt.Fprintf(&b, "var slot = 'zone-%d';\n", rng.Intn(900)+100)
	fmt.Fprintf(&b, "var img = new Image();\nimg.src = '%s?site=%s&imp=%s&slot=' + slot;\n", pixelURL, site, uid)
	return b.String()
}

// ServiceScript renders variant v of the service's tracker script with the
// visitor identifier and publisher site templated in. scheme is "http" or
// "https" depending on how the service was reached.
func ServiceScript(svc *Service, variant int, uid, scheme string) string {
	return ServiceScriptFor(svc, variant, uid, scheme, "")
}

// ServiceScriptFor is ServiceScript with the publisher-site context real
// tag servers template into their snippets.
func ServiceScriptFor(svc *Service, variant int, uid, scheme, site string) string {
	beacon := fmt.Sprintf("%s://%s/collect", scheme, svc.Host)
	pixel := fmt.Sprintf("%s://%s/px.gif", scheme, svc.Host)
	nv := svc.ScriptVariants
	if nv < 1 {
		nv = 1
	}
	variant = ((variant % nv) + nv) % nv
	switch {
	case svc.CanvasFP:
		// The last variant of a canvas service is benign decoration — real
		// trackers bundle both, and the detector must tell them apart.
		if nv > 2 && variant == nv-1 {
			return benignCanvasScript(svc.Host, variant)
		}
		return canvasFPScript(svc.Host, variant, uid, beacon)
	case svc.FontFP:
		return fontFPScript(uid, beacon)
	case svc.WebRTC:
		return webrtcScript(svc.Host, variant, uid, beacon)
	case svc.CryptoMiner:
		return minerScript(svc.Host, uid, scheme)
	case svc.Category == CatAdNetwork || svc.Category == CatTrafficTrade:
		return adScript(svc.Host, variant, uid, pixel, site)
	default:
		return analyticsScript(svc.Host, variant, uid, beacon, cookieNameFor(svc, 0))
	}
}

// InlineSiteScript is the first-party snippet a site embeds inline: it
// reports the site's own visitor ID to its analytics service (first-party
// cookie -> third-party URL, i.e. a site-origin cookie sync) and, for
// InlineCanvasFP sites, runs a first-party canvas fingerprint.
func InlineSiteScript(s *Site, fpUID string, analyticsHost, scheme string) string {
	var b strings.Builder
	if analyticsHost != "" && fpUID != "" {
		fmt.Fprintf(&b, "var px = new Image();\npx.src = '%s://%s/collect?fpuid=%s&site=%s';\n",
			scheme, analyticsHost, fpUID, s.Host)
	}
	if s.InlineCanvasFP {
		b.WriteString(canvasFPScript(s.Host, 0, fpUID, fmt.Sprintf("%s://%s/selfmetrics", scheme, s.Host)))
	}
	return b.String()
}

// cookieNameFor derives the i-th cookie name a service sets.
func cookieNameFor(svc *Service, i int) string {
	names := []string{"uid", "xid", "sid", "vid", "tid"}
	base := names[i%len(names)]
	h := fnv.New32a()
	h.Write([]byte(svc.Base))
	return fmt.Sprintf("%s_%x", base, h.Sum32()&0xffff)
}
