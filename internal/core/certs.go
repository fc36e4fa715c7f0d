package core

import (
	"context"
	"crypto/tls"
	"sync"

	"pornweb/internal/store"
)

// ProbeTLS reports which of the hosts complete a TLS handshake — the
// capability probe behind the "fully HTTPS" classification of Section 5.2
// (a third party *supports* HTTPS even when a plain-HTTP page embedded it
// over plain HTTP).
func (st *Study) ProbeTLS(ctx context.Context, hosts []string) map[string]bool {
	out := make(map[string]bool, len(hosts))
	var mu sync.Mutex
	st.forEach(ctx, len(hosts), func(i int) {
		if st.probeHost(ctx, hosts[i]).OK {
			mu.Lock()
			out[hosts[i]] = true
			mu.Unlock()
		}
	})
	return out
}

// ProbeCertOrgs actively collects X.509 organization strings: it attempts a
// TLS handshake with every host (through the study's resolver) and records
// the organization of the presented leaf certificate. The paper's
// attribution "leverages DNS, WHOIS and X.509 certificate information" —
// an active lookup, not just what the crawl happened to fetch over HTTPS,
// which would miss every tracker embedded from plain-HTTP pages.
func (st *Study) ProbeCertOrgs(ctx context.Context, hosts []string) map[string]string {
	out := make(map[string]string, len(hosts))
	var mu sync.Mutex
	st.forEach(ctx, len(hosts), func(i int) {
		if org := st.probeHost(ctx, hosts[i]).Org; org != "" {
			mu.Lock()
			out[hosts[i]] = org
			mu.Unlock()
		}
	})
	return out
}

// tlsProbe is what one TLS handshake with a host showed; it is also
// the probe's durable store entry.
type tlsProbe struct {
	OK  bool   `json:"ok,omitempty"`  // the handshake completed
	Org string `json:"org,omitempty"` // first organization of the leaf certificate, "" if none
}

// probeKey is the store key of a host's durable TLS probe outcome.
func probeKey(host string) store.Key { return store.Key{Stage: "probe/tls", Site: host} }

// hostProbe is one host's probe, shared by every caller.
type hostProbe struct {
	once sync.Once
	res  tlsProbe
}

// probeHost returns the host's TLS probe, dialling it at most once per
// study: ProbeTLS and ProbeCertOrgs, which may run in concurrent
// stages, share the handshake, and a store-backed study persists its
// outcome under "probe/tls", so a resumed run replays it instead of
// dialling. The handshake does not stop when the caller that started
// it gives up, since every later caller reads its answer; the server's
// 10 s handshake timeout bounds it. A failed handshake is a measured
// outcome like a completed one.
func (st *Study) probeHost(ctx context.Context, host string) tlsProbe {
	st.probeMu.Lock()
	p := st.probes[host]
	if p == nil {
		p = &hostProbe{}
		st.probes[host] = p
	}
	st.probeMu.Unlock()
	p.once.Do(func() {
		p.res = durableMeasure(st, probeKey(host), func() (tlsProbe, bool) {
			return st.handshake(context.WithoutCancel(ctx), host), true
		})
	})
	return p.res
}

// handshake dials host on the TLS port through the study's resolver and
// completes a handshake against the substrate CA.
func (st *Study) handshake(ctx context.Context, host string) tlsProbe {
	raw, err := st.Srv.DialContext(ctx, "tcp", host+":443")
	if err != nil {
		return tlsProbe{}
	}
	defer raw.Close()
	conn := tls.Client(raw, &tls.Config{ServerName: host, RootCAs: st.Srv.CertPool()})
	if err := conn.HandshakeContext(ctx); err != nil {
		return tlsProbe{}
	}
	res := tlsProbe{OK: true}
	if certs := conn.ConnectionState().PeerCertificates; len(certs) > 0 {
		if orgs := certs[0].Subject.Organization; len(orgs) > 0 {
			res.Org = orgs[0]
		}
	}
	return res
}
