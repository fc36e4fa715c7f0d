package webgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"pornweb/internal/lingo"
)

// PageContext carries the per-request state the renderer needs.
type PageContext struct {
	Country       string
	Scheme        string // scheme the site was fetched over ("http"/"https")
	FirstPartyUID string // visitor ID templated into the inline analytics sync
	AgeVerified   bool   // the age-gate cookie is present
}

// GateFor resolves the age-gate kind shown in a country.
func (s *Site) GateFor(country string) AgeGateKind {
	if g, ok := s.AgeGateByCountry[country]; ok {
		return g
	}
	return s.AgeGate
}

// BannerFor resolves the cookie banner shown in a country: the EU variant
// inside the EU, the US variant elsewhere.
func (s *Site) BannerFor(country string) BannerType {
	if EUCountries[country] {
		return s.BannerEU
	}
	return s.BannerUS
}

// rngPool recycles the generator's per-page and per-script RNGs: each
// math/rand source is ~4.9 KB, and every landing page and script body
// draws from its own. Seed re-seeds the whole source state and resets
// the Rand's read position, so a pooled RNG draws exactly what a fresh
// one would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// pooledRNG returns an RNG from rngPool seeded with seed; the caller
// puts it back once done drawing.
func pooledRNG(seed uint64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(int64(seed))
	return rng
}

// siteRNG derives a deterministic pooled RNG for a (site, salt) pair.
func siteRNG(host, salt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(host))
	h.Write([]byte(salt))
	return pooledRNG(h.Sum64())
}

func langOf(s *Site) string {
	if s.Language == "" {
		return "en"
	}
	return s.Language
}

// schemeFor picks the scheme used to embed a service from a page fetched
// over pageScheme: HTTPS-capable services are embedded securely from secure
// pages; everything else falls back to plain HTTP (producing the paper's
// "not fully HTTPS" mixed-content sites).
func schemeFor(svc *Service, pageScheme string) string {
	if pageScheme == "https" && svc.HTTPS {
		return "https"
	}
	return "http"
}

// variantFor deterministically selects which script variant of svc a site
// embeds, spreading the service's distinct script URLs across its sites.
func variantFor(siteHost string, svc *Service) int {
	h := fnv.New32a()
	h.Write([]byte(siteHost))
	h.Write([]byte(svc.Host))
	nv := svc.ScriptVariants
	if nv < 1 {
		nv = 1
	}
	return int(h.Sum32()) % nv
}

// RenderLanding produces the site's landing-page HTML for the context.
func (e *Ecosystem) RenderLanding(s *Site, ctx PageContext) string {
	lang := langOf(s)
	rng := siteRNG(s.Host, "landing")
	defer rngPool.Put(rng)
	var b strings.Builder

	b.WriteString("<!DOCTYPE html>\n<html lang=\"" + lang + "\">\n<head>\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", siteTitle(s, rng))
	b.WriteString(headMeta(s))
	// Stylesheets from CDN services and extra first-party hosts.
	for _, svc := range s.Services {
		if svc.Category == CatCDN {
			fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s://%s/css/lib.css\">\n", schemeFor(svc, ctx.Scheme), svc.Host)
		}
	}
	for _, fp := range s.ExtraFirstParty {
		fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s://%s/assets/site.css\">\n", ctx.Scheme, fp)
	}
	b.WriteString("</head>\n<body>\n")

	// Cookie consent banner.
	if banner := s.BannerFor(ctx.Country); banner != BannerNone {
		b.WriteString(renderBanner(banner, lang))
	}

	// Age-verification interstitial (rendered in the gate's language when
	// one is pinned, e.g. Russia-only gates).
	switch s.GateFor(ctx.Country) {
	case GateSimple:
		if !ctx.AgeVerified {
			gateLang := s.AgeGateLang
			if gateLang == "" {
				gateLang = lang
			}
			b.WriteString(renderSimpleGate(s, gateLang))
		}
	case GateSocialLogin:
		if !ctx.AgeVerified {
			b.WriteString(renderSocialGate(s))
		}
	}

	// Navigation, including the privacy-policy link when one exists.
	b.WriteString("<nav>\n")
	if s.HasPolicy {
		words := lingo.PrivacyLinkWords[lang]
		fmt.Fprintf(&b, "<a href=\"/privacy\">%s</a>\n", strings.Join(words, " "))
	}
	if s.HasSubscription {
		for _, w := range lingo.SignupWords[lang] {
			fmt.Fprintf(&b, "<a href=\"/account\">%s</a>\n", w)
		}
		for _, w := range lingo.PremiumWords[lang] {
			fmt.Fprintf(&b, "<a href=\"/premium\">%s</a>\n", w)
		}
	}
	b.WriteString("</nav>\n")

	// Main content.
	b.WriteString("<main>\n")
	b.WriteString(renderContent(s, rng))
	if s.HasSubscription && s.PaidSubscription {
		for _, w := range lingo.PaywallWords[lang] {
			fmt.Fprintf(&b, "<p class=\"paywall\">%s</p>\n", w)
		}
	}
	b.WriteString("</main>\n")

	// Third-party embeds.
	for _, svc := range s.Services {
		b.WriteString(renderServiceEmbed(s, svc, ctx))
	}
	// Geo-balanced edge assets: only the current country's host appears.
	if h, ok := s.CountryAssets[ctx.Country]; ok {
		fmt.Fprintf(&b, "<img src=\"http://%s/media/teaser.jpg\">\n", h)
	}
	// Site-specific unique third parties (long-tail CDNs and asset hosts).
	for i, host := range s.UniqueHosts {
		if i%2 == 0 {
			fmt.Fprintf(&b, "<img src=\"http://%s/px.gif?site=%s\" width=\"1\" height=\"1\">\n", host, s.Host)
		} else {
			fmt.Fprintf(&b, "<script src=\"http://%s/js/lib.js\"></script>\n", host)
		}
	}
	for _, fp := range s.ExtraFirstParty {
		fmt.Fprintf(&b, "<img src=\"%s://%s/assets/logo.png\">\n", ctx.Scheme, fp)
	}

	// Inline first-party script (analytics sync + optional canvas FP).
	if inline := e.renderInline(s, ctx); inline != "" {
		fmt.Fprintf(&b, "<script>\n%s</script>\n", inline)
	}

	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// renderInline emits the first-party inline script.
func (e *Ecosystem) renderInline(s *Site, ctx PageContext) string {
	analyticsHost := ""
	// A slice of sites report their own visitor ID to their analytics
	// service (site-origin cookie syncing): this is what pushes the
	// origin side of Figure 4 beyond the tracker population.
	if s.FirstPartyCookies > 0 && ctx.FirstPartyUID != "" && fnvHash(s.Host+"fpsync")%5 == 0 {
		for _, svc := range s.Services {
			if svc.Category == CatAnalytics {
				analyticsHost = svc.Host
				break
			}
		}
	}
	var scheme string
	if analyticsHost != "" {
		scheme = schemeFor(e.ServiceByHost[analyticsHost], ctx.Scheme)
	} else {
		scheme = ctx.Scheme
	}
	if analyticsHost == "" && !s.InlineCanvasFP {
		return ""
	}
	return InlineSiteScript(s, ctx.FirstPartyUID, analyticsHost, scheme)
}

func renderServiceEmbed(s *Site, svc *Service, ctx PageContext) string {
	scheme := schemeFor(svc, ctx.Scheme)
	v := variantFor(s.Host, svc)
	var b strings.Builder
	switch svc.Category {
	case CatAdNetwork, CatTrafficTrade:
		fmt.Fprintf(&b, "<script src=\"%s://%s/js/tag%d.js?site=%s\"></script>\n", scheme, svc.Host, v, s.Host)
		fmt.Fprintf(&b, "<iframe src=\"%s://%s/ad?site=%s&slot=a%d\" width=\"300\" height=\"250\"></iframe>\n", scheme, svc.Host, s.Host, v)
		fmt.Fprintf(&b, "<img src=\"%s://%s/px.gif?site=%s\" width=\"1\" height=\"1\">\n", scheme, svc.Host, s.Host)
	case CatAnalytics, CatDataBroker, CatDating:
		fmt.Fprintf(&b, "<script src=\"%s://%s/js/tag%d.js?site=%s\"></script>\n", scheme, svc.Host, v, s.Host)
		fmt.Fprintf(&b, "<img src=\"%s://%s/px.gif?site=%s\" width=\"1\" height=\"1\">\n", scheme, svc.Host, s.Host)
	case CatCDN, CatHosting:
		fmt.Fprintf(&b, "<img src=\"%s://%s/static/sprite.png\">\n", scheme, svc.Host)
		// CDNs host their customers' scripts: only a small slice of the
		// sites embedding a big CDN pull a fingerprinting script through
		// it (Table 5: cloudflare.com reaches a third of the porn web but
		// serves canvas scripts on just 28 sites). Niche CDNs serve their
		// scripts everywhere they are embedded.
		if svc.CanvasFP || svc.WebRTC {
			widely := svc.Prevalence[Porn] >= 0.05 || svc.Prevalence[Regular] >= 0.05
			if !widely || fnvHash(s.Host+svc.Host+"fp")%64 == 0 {
				fmt.Fprintf(&b, "<script src=\"%s://%s/js/tag%d.js?site=%s\"></script>\n", scheme, svc.Host, v, s.Host)
			}
		}
	case CatSocial:
		fmt.Fprintf(&b, "<script src=\"%s://%s/js/tag%d.js?site=%s\"></script>\n", scheme, svc.Host, v, s.Host)
	case CatCryptoMiner:
		fmt.Fprintf(&b, "<script src=\"%s://%s/js/tag0.js?site=%s\"></script>\n", scheme, svc.Host, s.Host)
	}
	return b.String()
}

func renderBanner(t BannerType, lang string) string {
	phrase := lingo.CookieBannerPhrases[lang][0]
	accept := lingo.AgeConfirmWords[lang][4] // "Accept"
	var b strings.Builder
	b.WriteString(`<div id="cookie-banner" class="cookie-banner" style="position:fixed;bottom:0">` + "\n")
	fmt.Fprintf(&b, "<p>%s.</p>\n", phrase)
	switch t {
	case BannerConfirmation:
		fmt.Fprintf(&b, "<button id=\"cb-accept\">%s</button>\n", accept)
	case BannerBinary:
		fmt.Fprintf(&b, "<button id=\"cb-accept\">%s</button>\n", accept)
		fmt.Fprintf(&b, "<button id=\"cb-reject\">%s</button>\n", lingo.BannerRejectWords[lang][0])
	case BannerOther:
		fmt.Fprintf(&b, "<button id=\"cb-accept\">%s</button>\n", accept)
		fmt.Fprintf(&b, "<a href=\"/cookie-settings\">%s</a>\n", lingo.BannerSettingsWords[lang][0])
		b.WriteString(`<input type="range" id="cb-slider" min="0" max="3">` + "\n")
	}
	b.WriteString("</div>\n")
	return b.String()
}

func renderSimpleGate(s *Site, lang string) string {
	warning := lingo.AgeWarningPhrases[lang][0] + ". " + lingo.AgeWarningPhrases[lang][1] + "."
	confirm := lingo.AgeConfirmWords[lang]
	var b strings.Builder
	b.WriteString(`<div id="age-gate" class="overlay modal" style="position:fixed;top:0;left:0;width:100%;height:100%">` + "\n")
	b.WriteString("<div class=\"modal-inner\">\n")
	fmt.Fprintf(&b, "<p>%s</p>\n", warning)
	fmt.Fprintf(&b, "<a id=\"age-enter\" href=\"/enter?to=%%2F\">%s</a>\n", confirm[1]) // "Enter"
	fmt.Fprintf(&b, "<a id=\"age-leave\" href=\"https://family-friendly.example/\">%s</a>\n", "Exit")
	b.WriteString("</div>\n</div>\n")
	return b.String()
}

func renderSocialGate(s *Site) string {
	// The Russian passport-linked login wall: no bypass link, a login form
	// instead (Section 7.2: only pornhub.com implements it).
	return `<div id="age-gate" class="overlay modal" style="position:fixed;top:0;left:0;width:100%;height:100%">
<div class="modal-inner">
<p>Для доступа требуется вход через социальную сеть, привязанную к паспорту.</p>
<form action="/social-login" method="post">
<input name="vk_account" placeholder="VK">
<button type="submit">Войти через VK</button>
</form>
</div></div>
`
}

// Note: no monetization keywords ("Premium", "Sign Up") may appear here —
// the Section 4.1 classifier keys on those.
var adultAdjectives = []string{"Amateur", "Mature", "Wild", "Real", "Hot", "Classic", "Exclusive", "Vintage"}
var regularTopics = []string{"Weather", "Markets", "Technology", "Travel", "Recipes", "Sports", "Culture", "Science"}

func siteTitle(s *Site, rng *rand.Rand) string {
	name := strings.SplitN(s.Host, ".", 2)[0]
	if s.Kind == Porn && !s.KeywordFalsePositive {
		return fmt.Sprintf("%s — %s Adult Videos", name, adultAdjectives[rng.Intn(len(adultAdjectives))])
	}
	return fmt.Sprintf("%s — %s and more", name, regularTopics[rng.Intn(len(regularTopics))])
}

// headMeta renders the <head> metadata. Sites of the same owner share a
// generator/theme signature, which is what the paper's TF-IDF comparison of
// <head> elements clusters on.
func headMeta(s *Site) string {
	var b strings.Builder
	if s.Kind == Porn && !s.KeywordFalsePositive {
		desc := strings.Join(lingo.AdultContentWords[:4], ", ")
		fmt.Fprintf(&b, "<meta name=\"description\" content=\"%s\">\n", desc)
	} else {
		fmt.Fprintf(&b, "<meta name=\"description\" content=\"daily %s news and guides\">\n", strings.ToLower(regularTopics[int(fnvHash(s.Host))%len(regularTopics)]))
	}
	if s.Owner != nil {
		// Federated platforms stamp every network site with the same
		// generator and theme — the signal the owner-discovery clustering
		// keys on.
		fmt.Fprintf(&b, "<meta name=\"generator\" content=\"%s-platform v4\">\n", strings.ReplaceAll(strings.ToLower(s.Owner.Name), " ", "-"))
		fmt.Fprintf(&b, "<meta name=\"theme\" content=\"%s-dark\">\n", strings.ReplaceAll(strings.ToLower(s.Owner.Name), " ", "-"))
	} else {
		// Independent sites carry a per-site build fingerprint so their
		// heads do NOT look identical (they are unrelated operators).
		fmt.Fprintf(&b, "<meta name=\"generator\" content=\"site-engine v%d\">\n", int(fnvHash(s.Host))%7+1)
		fmt.Fprintf(&b, "<meta name=\"build\" content=\"b%08x\">\n", fnvHash(s.Host+"build"))
	}
	if s.RTAMeta {
		b.WriteString("<meta name=\"RATING\" content=\"RTA-5042-1996-1400-1577-RTA\">\n")
	}
	return b.String()
}

func fnvHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// renderContent emits the main body: adult markers for porn sites (the
// sanitization step classifies on these) and neutral content otherwise.
func renderContent(s *Site, rng *rand.Rand) string {
	var b strings.Builder
	if s.Kind == Porn && !s.KeywordFalsePositive {
		b.WriteString("<h1>" + lingo.AdultContentWords[0] + "</h1>\n")
		b.WriteString("<p>Warning: this site hosts " + lingo.AdultContentWords[1] + " and " + lingo.AdultContentWords[2] + ".</p>\n")
		n := 6 + rng.Intn(10)
		b.WriteString("<ul class=\"videos\">\n")
		for i := 0; i < n; i++ {
			adj := adultAdjectives[rng.Intn(len(adultAdjectives))]
			fmt.Fprintf(&b, "<li><a href=\"/video/%d\">%s %s #%d</a></li>\n", i, adj, lingo.AdultContentWords[rng.Intn(3)+4], rng.Intn(10000))
		}
		b.WriteString("</ul>\n")
	} else {
		topic := regularTopics[rng.Intn(len(regularTopics))]
		fmt.Fprintf(&b, "<h1>%s Daily</h1>\n", topic)
		n := 5 + rng.Intn(8)
		b.WriteString("<ul class=\"articles\">\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<li><a href=\"/article/%d\">%s update %d</a></li>\n", i, regularTopics[rng.Intn(len(regularTopics))], rng.Intn(1000))
		}
		b.WriteString("</ul>\n")
	}
	return b.String()
}

// RenderPolicyPage wraps the generated policy text in HTML.
func RenderPolicyPage(s *Site) string {
	var b strings.Builder
	b.Grow(len(s.PolicyText) + len(s.Host) + 256)
	b.WriteString("<!DOCTYPE html>\n<html><head><title>Privacy Policy — " + s.Host + "</title></head>\n<body>\n")
	b.WriteString("<article id=\"policy\">\n")
	for _, para := range strings.Split(s.PolicyText, "\n\n") {
		para = strings.TrimSpace(para)
		if para == "" {
			continue
		}
		b.WriteString("<p>")
		b.WriteString(para)
		b.WriteString("</p>\n")
	}
	b.WriteString("</article>\n</body></html>\n")
	return b.String()
}
