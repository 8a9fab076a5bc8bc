#include "interconnect/pcie.hpp"

#include "common/string_util.hpp"

namespace nvmooc {

LinkConfig bridged_pcie2(unsigned lanes) {
  LinkConfig link;
  link.name = format("bridged-pcie2-x%u", lanes);
  link.gigatransfers_per_sec = 5.0;
  link.lanes = lanes;
  link.encoding = 8.0 / 10.0;
  link.request_latency = 2 * kMicrosecond;
  // SATA protocol conversion: the endpoint re-frames every transfer for
  // the SATA-host/SATA-device pair in front of the NAND controllers.
  link.bridge_latency = 4 * kMicrosecond;
  link.bridge_efficiency = 0.95;
  return link;
}

LinkConfig native_pcie3(unsigned lanes) {
  LinkConfig link;
  link.name = format("native-pcie3-x%u", lanes);
  link.gigatransfers_per_sec = 8.0;
  link.lanes = lanes;
  link.encoding = 128.0 / 130.0;
  link.request_latency = 1 * kMicrosecond;
  link.bridge_latency = Time{};
  link.bridge_efficiency = 1.0;
  return link;
}

}  // namespace nvmooc
