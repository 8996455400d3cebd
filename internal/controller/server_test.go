package controller

import (
	"context"
	"net"
	"sync"
	"testing"

	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/packet"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

func ex1Controller(t *testing.T) (*Controller, *core.Result, *trafficgen.Trace) {
	t.Helper()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := programs.Ex1Config()
	res, err := core.Optimize(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(res.ControllerProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, res, trace
}

func dnsQuery(src, dst uint32, id uint16) []byte {
	return packet.Serialize(
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoUDP, Src: src, Dst: dst},
		&packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS},
		&packet.DNS{ID: id, QDCount: 1},
	)
}

// TestServerOverTCP drives the packet-in protocol over a real TCP loopback
// connection: the DNS limiter's verdicts arrive over the wire.
func TestServerOverTCP(t *testing.T) {
	ctl, _, _ := ex1Controller(t)
	srv := NewServer(ctl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	client, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src := packet.IP(10, 9, 1, 1)
	dst := packet.IP(10, 0, 0, 53)
	var firstDrop int
	for i := 1; i <= programs.Ex1DNSThreshold+4; i++ {
		v, err := client.Submit(1, dnsQuery(src, dst, uint16(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if v.Code == WireVerdictDrop && firstDrop == 0 {
			firstDrop = i
		}
	}
	if firstDrop != programs.Ex1DNSThreshold {
		t.Errorf("first remote drop at query %d, want %d", firstDrop, programs.Ex1DNSThreshold)
	}
	stats := ctl.Stats()
	if stats.Handled != programs.Ex1DNSThreshold+4 {
		t.Errorf("handled = %d, want %d", stats.Handled, programs.Ex1DNSThreshold+4)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestServerConcurrentClients: multiple connections share the controller's
// state safely.
func TestServerConcurrentClients(t *testing.T) {
	ctl, _, _ := ex1Controller(t)
	srv := NewServer(ctl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	const clients = 4
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			src := packet.IP(10, 9, 2, byte(c+1)) // distinct flow per client
			for i := 0; i < perClient; i++ {
				if _, err := client.Submit(1, dnsQuery(src, packet.IP(10, 0, 0, 53), uint16(i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := ctl.Stats().Handled; got != clients*perClient {
		t.Errorf("handled = %d, want %d", got, clients*perClient)
	}
}

// TestServerRejectsOversizedFrame: a protocol violation drops the
// connection without crashing the server.
func TestServerRejectsOversizedFrame(t *testing.T) {
	ctl, _, _ := ex1Controller(t)
	srv := NewServer(ctl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// port=1, length = 2^31: the server must hang up.
	if _, err := conn.Write([]byte{0, 1, 0x80, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected connection close after oversized frame")
	}
	// The client-side API also refuses oversized frames.
	client := NewClient(conn)
	if _, err := client.Submit(1, make([]byte, maxFrameLen+1)); err == nil {
		t.Error("client should refuse oversized frames")
	}
}

// TestClientOverNetPipe exercises the protocol without real sockets.
func TestClientOverNetPipe(t *testing.T) {
	ctl, _, _ := ex1Controller(t)
	srv := NewServer(ctl)
	serverConn, clientConn := net.Pipe()
	go srv.handleConn(serverConn)
	client := NewClient(clientConn)
	defer client.Close()
	v, err := client.Submit(1, dnsQuery(packet.IP(10, 9, 3, 3), packet.IP(10, 0, 0, 53), 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != WireVerdictPass {
		t.Errorf("verdict = %d, want pass", v.Code)
	}
}
