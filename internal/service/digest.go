package service

import "p2go/internal/trafficgen"

// TraceDigest is the trace's content digest; see trafficgen.Trace.Digest.
func TraceDigest(t *trafficgen.Trace) string { return t.Digest() }
