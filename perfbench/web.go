package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

// Request kinds of the web streams.
const (
	kindStatic = iota
	kindAd
	kindWork
	kindPost
)

// The SPECweb99-like mix: 70% static GETs over the four file classes
// (35/50/14/1), 30% dynamic of which 16% are form POSTs; the dynamic
// GETs are ad-rotation pages and, less often, the CPU-burning work page.
var classProb = [4]float64{0.35, 0.50, 0.14, 0.01}

const (
	dynamicFrac = 0.30
	postFrac    = 0.16
	workFrac    = 0.30 // share of the dynamic GETs that hit /dynamic
	adUsers     = 64   // distinct ad-rotation users in a stream
	scriptWork  = 2000 // the server's default dynamic-page loop bound
	streamLen   = 1 << 16
)

// webReq is one pre-generated request with what its response must be.
type webReq struct {
	kind int
	raw  []byte // the request bytes as written
	path string
	user int    // ad pages: the requesting user
	want []byte // expected body (static, work and POST pages)
}

// webStream is a workload's pre-generated request stream plus the
// references every response is checked against. Operation i uses
// reqs[i % len(reqs)].
type webStream struct {
	reqs []webReq
	ads  [adUsers][8][]byte // user -> the 8 legal ad renderings
}

// newWebStream draws the stream from seed. mixed selects the full
// SPECweb99-like mix on keep-alive connections; otherwise every request
// is a static GET announcing Connection: close. References come from
// the corpus (statics) and the FScript interpreter (pages), computed
// here, before any timing starts.
func newWebStream(files *loadgen.FileSet, seed int64, mixed bool) (*webStream, error) {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if files.Dirs > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(files.Dirs-1))
	}
	st := &webStream{reqs: make([]webReq, 0, streamLen)}
	if mixed {
		if err := st.renderRefs(); err != nil {
			return nil, err
		}
	}
	work, err := renderPage(fscript.BenchWorkPage, map[string]fscript.Value{"work": fscript.IntVal(scriptWork)})
	if err != nil {
		return nil, err
	}
	conn := ""
	if !mixed {
		conn = "Connection: close\r\n"
	}
	for seq := 0; seq < streamLen; seq++ {
		if mixed && rng.Float64() < dynamicFrac {
			switch r := rng.Float64(); {
			case r < postFrac:
				user := rng.Intn(10000)
				form := fmt.Sprintf("uid=%d&seq=%d&field=specweb", user, seq)
				st.reqs = append(st.reqs, webReq{
					kind: kindPost,
					path: "/post",
					raw: []byte(fmt.Sprintf("POST /post HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s",
						len(form), form)),
					want: bodyOf(httpkit.RenderPostConfirm("/post", len(form))),
				})
			case r < postFrac+(1-postFrac)*workFrac:
				st.reqs = append(st.reqs, webReq{kind: kindWork, path: "/dynamic",
					raw: []byte("GET /dynamic HTTP/1.1\r\nHost: bench\r\n\r\n"), want: work})
			default:
				user := rng.Intn(adUsers)
				p := fmt.Sprintf("/adrotate?u=%d&r=%d", user, seq)
				st.reqs = append(st.reqs, webReq{kind: kindAd, path: p, user: user,
					raw: []byte("GET " + p + " HTTP/1.1\r\nHost: bench\r\n\r\n")})
			}
			continue
		}
		dir := 0
		if zipf != nil {
			dir = int(zipf.Uint64())
		}
		class, r := 3, rng.Float64()
		for c, acc := 0, 0.0; c < 4; c++ {
			if acc += classProb[c]; r < acc {
				class = c
				break
			}
		}
		p := files.Path(dir, class, 1+rng.Intn(9))
		body, ok := files.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("corpus has no %s", p)
		}
		st.reqs = append(st.reqs, webReq{kind: kindStatic, path: p, want: body,
			raw: []byte("GET " + p + " HTTP/1.1\r\nHost: bench\r\n" + conn + "\r\n")})
	}
	return st, nil
}

// renderRefs computes every legal ad-rotation page: the ad shown to user
// u is (u+rot)%8 for the server's rotation counter rot, so the eight
// renderings rot=0..7 are exactly the pages the server may return.
func (st *webStream) renderRefs() error {
	for u := 0; u < adUsers; u++ {
		for rot := 0; rot < 8; rot++ {
			page, err := renderPage(fscript.BenchAdPage, map[string]fscript.Value{
				"work": fscript.IntVal(scriptWork), "user": fscript.IntVal(int64(u)), "rot": fscript.IntVal(int64(rot)),
			})
			if err != nil {
				return err
			}
			st.ads[u][rot] = page
		}
	}
	return nil
}

// renderPage runs a template through the FScript interpreter.
func renderPage(src string, vars map[string]fscript.Value) ([]byte, error) {
	p, err := fscript.Parse(src)
	if err != nil {
		return nil, err
	}
	out, err := p.Execute(vars)
	return []byte(out), err
}

// bodyOf strips a rendered response's header.
func bodyOf(resp []byte) []byte {
	_, body, _ := bytes.Cut(resp, []byte("\r\n\r\n"))
	return body
}

// check verifies one response body against the request's reference.
func (st *webStream) check(r *webReq, body []byte) error {
	if r.kind == kindAd {
		for _, ref := range st.ads[r.user] {
			if bytes.Equal(body, ref) {
				return nil
			}
		}
		return fmt.Errorf("%s: body matches none of the user's 8 ad renderings", r.path)
	}
	if !bytes.Equal(body, r.want) {
		return fmt.Errorf("%s: body differs from the reference (%d bytes, want %d)", r.path, len(body), len(r.want))
	}
	return nil
}

// webLane is one HTTP connection slot. With keepAlive it holds one
// persistent connection, redialing when the server announces close
// (every MaxKeepAlive requests); without, every operation dials a fresh
// connection, sends one request and reads until the server closes.
type webLane struct {
	addr      string
	st        *webStream
	keepAlive bool
	timeout   time.Duration

	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func newWebLane(addr string, st *webStream, keepAlive bool, timeout time.Duration) *webLane {
	return &webLane{addr: addr, st: st, keepAlive: keepAlive, timeout: timeout}
}

func (l *webLane) do(i int64, sp *span, clk clock) (int64, error) {
	r := &l.st.reqs[i%int64(len(l.st.reqs))]
	n, err := l.exchange(r, sp, clk)
	if err != nil {
		l.close() // a failed exchange leaves the stream unframed
	}
	return n, err
}

func (l *webLane) exchange(r *webReq, sp *span, clk clock) (int64, error) {
	if l.conn == nil {
		sp.dialStart = clk.now()
		c, err := net.DialTimeout("tcp", l.addr, l.timeout)
		if err != nil {
			return 0, fmt.Errorf("dial: %w", err)
		}
		sp.dialDone = clk.now()
		l.conn = c
		if l.br == nil {
			l.br = bufio.NewReaderSize(c, 64<<10)
		} else {
			l.br.Reset(c)
		}
	}
	_ = l.conn.SetDeadline(time.Now().Add(l.timeout))
	if _, err := l.conn.Write(r.raw); err != nil {
		return 0, fmt.Errorf("write %s: %w", r.path, err)
	}
	sp.written = clk.now()
	if _, err := l.br.Peek(1); err != nil {
		return 0, fmt.Errorf("read %s: %w", r.path, err)
	}
	sp.firstByte = clk.now()
	body, closing, err := l.readResponse()
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", r.path, err)
	}
	if err := l.st.check(r, body); err != nil {
		return 0, err
	}
	if !l.keepAlive {
		if !closing {
			return 0, fmt.Errorf("%s: response to a Connection: close request did not announce close", r.path)
		}
		// The server closes after its final response: nothing may follow.
		if n, err := l.br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			return 0, fmt.Errorf("%s: expected EOF after the final response, got %d bytes, %v", r.path, n, err)
		}
	}
	if closing {
		l.close()
	}
	return int64(len(body)), nil
}

// readResponse reads one HTTP/1.1 response: it must be a 200 with a
// Content-Length; the body is read into the lane's reusable buffer.
func (l *webLane) readResponse() (body []byte, closing bool, err error) {
	line, err := l.br.ReadSlice('\n')
	if err != nil {
		return nil, false, err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return nil, false, fmt.Errorf("status %q", strings.TrimSpace(string(line)))
	}
	clen := -1
	for {
		h, err := l.br.ReadSlice('\n')
		if err != nil {
			return nil, false, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return nil, false, fmt.Errorf("malformed header %q", h)
		}
		v = bytes.TrimSpace(v)
		switch strings.ToLower(string(k)) {
		case "content-length":
			if clen, err = strconv.Atoi(string(v)); err != nil || clen < 0 {
				return nil, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case "connection":
			closing = strings.EqualFold(string(v), "close")
		}
	}
	if clen < 0 {
		return nil, false, errors.New("response without Content-Length")
	}
	if cap(l.body) < clen {
		l.body = make([]byte, clen)
	}
	l.body = l.body[:clen]
	if _, err := io.ReadFull(l.br, l.body); err != nil {
		return nil, false, err
	}
	return l.body, closing, nil
}

func (l *webLane) close() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}
