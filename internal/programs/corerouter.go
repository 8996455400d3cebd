package programs

// CoreRouter is the second device of the §6 network-wide demonstrator: a
// minimal router behind the Ex. 1 edge firewall that routes the enterprise
// prefix onward and drops everything else. It is already one stage, so
// optimizing it changes nothing.
const CoreRouter = `
header_type ethernet_t {
    fields { dstAddr : 48; srcAddr : 48; etherType : 16; }
}
header_type ipv4_t {
    fields {
        version : 4; ihl : 4; diffserv : 8; totalLen : 16;
        identification : 16; flags : 3; fragOffset : 13;
        ttl : 8; protocol : 8; hdrChecksum : 16;
        srcAddr : 32; dstAddr : 32;
    }
}
header ethernet_t ethernet;
header ipv4_t ipv4;
parser start {
    extract(ethernet);
    return select(ethernet.etherType) {
        0x0800 : parse_ipv4;
        default : ingress;
    }
}
parser parse_ipv4 { extract(ipv4); return ingress; }
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
action core_drop() { drop(); }
table core_routes {
    reads { ipv4.dstAddr : lpm; }
    actions { fwd; core_drop; }
    size : 64;
    default_action : core_drop;
}
control ingress {
    if (valid(ipv4)) {
        apply(core_routes);
    }
}
`

// CoreRouterRulesText routes the whole enterprise range (10/8) out of port
// 12.
const CoreRouterRulesText = "table_add core_routes fwd 10.0.0.0/8 => 12"
