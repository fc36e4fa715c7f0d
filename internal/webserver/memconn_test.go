package webserver

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"pornweb/internal/resilience"
)

// pair returns both ends of a fresh in-memory connection.
func pair(t *testing.T) (client, server *memConn) {
	t.Helper()
	client, server = newConnPair(&net.TCPAddr{IP: loopback, Port: 40000}, &net.TCPAddr{IP: loopback, Port: 80})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// readAsync starts a Read on c and returns where its error arrives.
func readAsync(c net.Conn) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		errc <- err
	}()
	return errc
}

func waitErr(t *testing.T, what string, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Read still blocked after 5s", what)
		return nil
	}
}

func TestMemConnPastDeadlineUnblocksRead(t *testing.T) {
	client, _ := pair(t)
	errc := readAsync(client)
	time.Sleep(10 * time.Millisecond) // let the Read block
	client.SetReadDeadline(time.Unix(1, 0))
	err := waitErr(t, "past deadline", errc)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read error = %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Read error %v is not a net.Error timeout", err)
	}
	// Clearing the deadline makes the conn readable again, as net/http's
	// abortPendingRead expects.
	client.SetReadDeadline(time.Time{})
	errc = readAsync(client)
	select {
	case err := <-errc:
		t.Fatalf("Read returned %v with no deadline and no data", err)
	case <-time.After(20 * time.Millisecond):
	}
	client.Close()
	waitErr(t, "after close", errc)
}

func TestMemConnFutureDeadlineFires(t *testing.T) {
	client, _ := pair(t)
	client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if err := waitErr(t, "future deadline", readAsync(client)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read error = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestMemConnCloseWakesBothEnds(t *testing.T) {
	for _, closer := range []string{"client", "server"} {
		t.Run(closer, func(t *testing.T) {
			client, server := pair(t)
			clientErr, serverErr := readAsync(client), readAsync(server)
			time.Sleep(10 * time.Millisecond)
			if closer == "client" {
				client.Close()
			} else {
				server.Close()
			}
			if err := waitErr(t, "client", clientErr); err == nil {
				t.Error("client Read returned no error after close")
			}
			if err := waitErr(t, "server", serverErr); err == nil {
				t.Error("server Read returned no error after close")
			}
		})
	}
}

func TestMemConnCloseDeliversBufferedBytesThenEOF(t *testing.T) {
	client, server := pair(t)
	if _, err := server.Write([]byte("response")); err != nil {
		t.Fatal(err)
	}
	server.Close()
	got, err := io.ReadAll(client)
	if err != nil || string(got) != "response" {
		t.Fatalf("ReadAll = %q, %v; want \"response\", nil", got, err)
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Error("Write to a closed peer succeeded")
	}
}

func TestMemConnResetDeliversBufferedBytesThenReset(t *testing.T) {
	client, server := pair(t)
	if _, err := server.Write([]byte("HTTP/1.1 200 OK\r\n")); err != nil {
		t.Fatal(err)
	}
	abortConn(server)
	got, err := io.ReadAll(client)
	if string(got) != "HTTP/1.1 200 OK\r\n" {
		t.Errorf("read %q before the reset, want the buffered bytes", got)
	}
	if c := resilience.Classify(err); c != resilience.ClassReset {
		t.Fatalf("Read error %v classified %q, want %q", err, c, resilience.ClassReset)
	}
	if _, err := client.Write([]byte("x")); resilience.Classify(err) != resilience.ClassReset {
		t.Errorf("Write after reset = %v, want a reset", err)
	}
}

func TestMemConnDrainedBufferIsReleased(t *testing.T) {
	client, server := pair(t)
	server.Write(make([]byte, 100))
	buf := make([]byte, 60)
	client.Read(buf)
	if client.in.buf == nil {
		t.Fatal("buffer released with 40 bytes unread")
	}
	client.Read(buf)
	if client.in.buf != nil {
		t.Error("drained buffer still held")
	}
	server.Write(make([]byte, 100))
	client.Close()
	if client.in.buf != nil {
		t.Error("buffer still held after the reader closed")
	}
}

func TestMemConnConcurrentUse(t *testing.T) {
	client, server := pair(t)
	const total = 1 << 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 3000)
		for sent := 0; sent < total; sent += len(chunk) {
			server.Write(chunk)
		}
		server.Close()
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			client.SetWriteDeadline(time.Now().Add(time.Hour))
			client.SetReadDeadline(time.Now().Add(time.Hour))
		}
	}()
	var got int64
	go func() {
		defer wg.Done()
		got, _ = io.Copy(io.Discard, client)
	}()
	wg.Wait()
	if want := int64((total + 2999) / 3000 * 3000); got != want {
		t.Fatalf("read %d bytes, want %d", got, want)
	}
}

func TestDialAfterCloseIsRefused(t *testing.T) {
	srv, _ := startTest(t)
	srv.Close()
	for _, port := range []string{"80", "443"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		conn, err := srv.DialContext(ctx, "tcp", "example.com:"+port)
		cancel()
		if err == nil {
			conn.Close()
			t.Fatalf("dial :%s after Close succeeded", port)
		}
		if c := resilience.Classify(err); c != resilience.ClassRefused {
			t.Errorf("dial :%s after Close: %v classified %q, want %q", port, err, c, resilience.ClassRefused)
		}
	}
}

func TestCloseClosesUnusedConn(t *testing.T) {
	srv, _ := startTest(t)
	conn, err := srv.DialContext(context.Background(), "tcp", "example.com:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	errc := readAsync(conn)
	srv.Close()
	if err := waitErr(t, "unused conn", errc); err == nil {
		t.Error("unused connection still readable after Close")
	}
}

// TestServedRemoteAddrIsLoopback checks the address a handler sees;
// handle derives the client IP from it.
func TestServedRemoteAddrIsLoopback(t *testing.T) {
	srv, _ := startTest(t)
	remote := make(chan string, 1)
	// Swapped in before the first dial, whose channel handoff orders the
	// write before the Serve loop's read.
	srv.httpSrv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remote <- r.RemoteAddr
	})
	resp, err := client(srv).Get("http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	host, _, err := net.SplitHostPort(<-remote)
	if err != nil {
		t.Fatal(err)
	}
	if ip := net.ParseIP(host); !ip.Equal(net.IPv4(127, 0, 0, 1)) {
		t.Errorf("RemoteAddr IP = %q, want 127.0.0.1", host)
	}
}
