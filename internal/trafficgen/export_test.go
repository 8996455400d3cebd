package trafficgen

// BuildFlows lets the external test package choose the flow index's hash.
var BuildFlows = buildFlows
