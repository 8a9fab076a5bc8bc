// Energy accounting for a replayed experiment.
//
// The paper motivates compute-local NVM partly on power: the traditional
// alternative keeps the whole dataset in distributed DRAM across many
// nodes, paying refresh and network energy continuously ("very tangible
// costs ... in terms of initial capital investment for the memory and
// network and high energy use of both over time", Section 1). This model
// turns a replay's resource occupancy into joules so the architectures
// can be compared on energy per byte of useful work, and quantifies the
// in-DRAM alternative for the same dataset.
#pragma once

#include <string>

#include "cluster/experiment.hpp"

namespace nvmooc {

/// Device-level power/energy coefficients. Defaults are representative
/// of 2013-era parts (NAND datasheets, PCIe PHY surveys); they are
/// parameters, not measurements.
struct EnergyModel {
  /// Power drawn by one die while a cell operation is in flight (W).
  double cell_read_watts = 0.06;
  double cell_write_watts = 0.12;
  double cell_erase_watts = 0.09;
  /// Power on an active channel/flash bus (W).
  double bus_watts = 0.15;
  /// Host-link energy per byte moved (J/B): PCIe PHY ~ 10 pJ/bit.
  double link_joules_per_byte = 10e-12 * 8;
  /// Network energy per byte (NIC+switch, ~60 pJ/bit end to end).
  double network_joules_per_byte = 60e-12 * 8;
  /// SSD controller + DRAM idle floor (W).
  double device_idle_watts = 2.0;
  /// DRAM refresh + background power per GiB held resident (W/GiB) —
  /// for the in-memory alternative.
  double dram_watts_per_gib = 0.4;
};

struct EnergyReport {
  double cell_joules = 0.0;
  double bus_joules = 0.0;
  double link_joules = 0.0;
  double network_joules = 0.0;
  double idle_joules = 0.0;
  double total_joules = 0.0;
  /// Millijoules per MiB of application data moved.
  double mj_per_mib = 0.0;
};

/// Energy of a finished replay: per-op cell time and bus occupancy come
/// from the controller's raw resource accounting (`result.controller`);
/// link/network bytes and the makespan from the rest of the result.
EnergyReport estimate_energy(const ExperimentResult& result, bool ion_local,
                             const EnergyModel& model = {});

/// The traditional alternative: keep `dataset_bytes` resident in
/// distributed DRAM for `duration` and move each computation's traffic
/// over the network anyway. Joules.
double in_memory_alternative_joules(Bytes dataset_bytes, Bytes traffic_bytes,
                                    Time duration, const EnergyModel& model = {});

}  // namespace nvmooc
