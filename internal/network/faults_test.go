package network

import (
	"errors"
	"strings"
	"testing"

	"p2go/internal/faults"
)

// TestDeviceFailureNamed: a device failing mid-collection surfaces as a
// typed DeviceError naming the device and injection — never as a bare
// simulator error or zero-valued traces — and costs only that injection's
// remaining path: the healthy part of the network keeps its traces.
func TestDeviceFailureNamed(t *testing.T) {
	topo := buildTopology(t)
	injections := enterpriseInjections(t)
	// The second step of every journey runs on the core router; failing
	// event 1 pins the error there.
	topo.SetFaults(faults.MustSet(faults.Spec{Point: faults.SimStep, From: 1, To: 2}))

	traces, errs := topo.CollectDeviceTraces(injections[:50])
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly the injected failure", errs)
	}
	devErr := errs[0]
	if devErr.Device != "corert" {
		t.Errorf("failing device = %q, want corert (the second hop)", devErr.Device)
	}
	if devErr.Injection != 0 {
		t.Errorf("failing injection = %d, want 0", devErr.Injection)
	}
	if !strings.Contains(devErr.Error(), "corert") {
		t.Errorf("error text %q does not name the device", devErr)
	}
	if !faults.IsInjected(errors.Unwrap(devErr)) {
		t.Errorf("underlying error %v lost the injection marker", devErr.Err)
	}
	if got := len(traces["edge"].Packets); got != 50 {
		t.Errorf("edge saw %d packets, want all 50 despite the core's failure", got)
	}
}

// TestInjectDeviceFailureNamed: the same guarantee on the single-packet
// Inject path.
func TestInjectDeviceFailureNamed(t *testing.T) {
	topo := buildTopology(t)
	topo.SetFaults(faults.MustSet(faults.Spec{Point: faults.SimStep, From: 0, To: 1}))
	injections := enterpriseInjections(t)

	_, err := topo.Inject(injections[0].At, injections[0].Data)
	var devErr *DeviceError
	if !errors.As(err, &devErr) {
		t.Fatalf("Inject error %v is not a *DeviceError", err)
	}
	if devErr.Device != "edge" {
		t.Errorf("failing device = %q, want edge (the entry hop)", devErr.Device)
	}
	if devErr.Injection != -1 {
		t.Errorf("Injection = %d, want -1 (not trace collection)", devErr.Injection)
	}
}

// TestNoFaultsNoError: an inert (nil) fault set leaves collection intact.
func TestNoFaultsNoError(t *testing.T) {
	topo := buildTopology(t)
	topo.SetFaults(nil)
	traces, errs := topo.CollectDeviceTraces(enterpriseInjections(t)[:50])
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if len(traces["edge"].Packets) != 50 {
		t.Errorf("edge saw %d packets, want 50", len(traces["edge"].Packets))
	}
}
