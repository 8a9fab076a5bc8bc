// The concrete link configurations of Table 2.
#pragma once

#include "interconnect/link.hpp"

namespace nvmooc {

/// Bridged PCIe 2.0 device: SATA-destined controllers behind a PCIe
/// endpoint. 5 GT/s per lane with 8b/10b encoding, plus the SATA
/// re-encode cost on every request.
LinkConfig bridged_pcie2(unsigned lanes);

/// Native PCIe 3.0 device: 8 GT/s per lane with 128b/130b encoding,
/// controller speaks PCIe end to end.
LinkConfig native_pcie3(unsigned lanes);

}  // namespace nvmooc
