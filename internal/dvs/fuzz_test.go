package dvs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"lonviz/internal/obs"
)

// replyKinds frames request bytes the way the server reads them and
// reports, for each request the server may answer, whether its reply is
// a GET reply (status line plus entries) or a single status line. It
// stops at the first request the bytes do not complete.
func replyKinds(data []byte) (isGet []bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return isGet
		}
		f, _, _ := obs.StripTraceToken(strings.Fields(line))
		f, _, _ = obs.StripDeadlineToken(f)
		isGet = append(isGet, len(f) == 3 && f[0] == "GET")
		if len(f) == 4 && (f[0] == "PUT" || f[0] == "REPLACE") {
			n, err := strconv.Atoi(f[3])
			if err == nil && n > 0 && n <= maxEntry {
				if _, err := br.Discard(n); err != nil {
					// Short body: the server waits for the rest, or
					// answers at once if it shed the request, so no
					// reply can be counted on.
					return isGet[:len(isGet)-1]
				}
			}
		}
	}
}

// pipeEnd is the server's end of a fuzzed connection: it reads the
// request bytes first, then whatever the client end sends, until the
// client closes.
type pipeEnd struct {
	net.Conn
	r io.Reader
}

func (c pipeEnd) Read(p []byte) (int, error) { return c.r.Read(p) }

// FuzzDVSRequest feeds arbitrary request bytes to a server connection.
// Every reply must parse — a status line starting OK, MISS or ERR, and a
// GET reply's entries — and the handler must exit once the client closes.
func FuzzDVSRequest(f *testing.F) {
	logger := obs.DefaultLogger()
	level := logger.Level()
	logger.SetLevel(obs.LevelError) // sheds warn per request
	f.Cleanup(func() { logger.SetLevel(level) })
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer("")
		s.Obs, s.Tracer = obs.NewRegistry(), obs.NewTracer(16)
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handle(context.Background(), pipeEnd{server, io.MultiReader(bytes.NewReader(data), server)})
		}()
		_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(client)
		for i, isGet := range replyKinds(data) {
			var err error
			if isGet {
				_, err = readReplicas(br)
			} else {
				_, err = readStatus(br)
			}
			if errors.Is(err, io.EOF) {
				break // the server hung up: shed, malformed or overlong
			}
			if errors.Is(err, ErrProto) {
				t.Fatalf("reply %d: %v", i, err)
			}
		}
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler still running after the client closed")
		}
	})
}

// FuzzDVSResponse feeds arbitrary reply bytes to Client.Get. Whatever
// they hold, Get must not panic, and only a parsed OK or MISS reply may
// leave the connection pooled.
func FuzzDVSResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte) {
		served := make(chan struct{})
		dial := dialFunc(func(string) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer close(served)
				defer server.Close()
				if _, err := bufio.NewReader(server).ReadString('\n'); err == nil {
					server.Write(reply)
				}
			}()
			return client, nil
		})
		cl := &Client{Addr: "fuzz", Dialer: dial, Timeout: 10 * time.Second, Obs: obs.NewRegistry()}
		_, err := cl.Get(context.Background(), Key{Dataset: "d", ViewSet: "v"})
		pooled := idleConns(cl)
		if errors.Is(err, ErrProto) && pooled != 0 {
			t.Fatalf("connection pooled after a parse error: %v", err)
		}
		if pooled != 0 && err != nil && !errors.Is(err, ErrMiss) {
			t.Fatalf("connection pooled after %v", err)
		}
		cl.CloseIdle()
		<-served
	})
}

type dialFunc func(addr string) (net.Conn, error)

func (d dialFunc) Dial(addr string) (net.Conn, error) { return d(addr) }
