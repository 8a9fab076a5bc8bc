#include "cluster/energy.hpp"

namespace nvmooc {

EnergyReport estimate_energy(const ExperimentResult& result, bool ion_local,
                             const EnergyModel& model) {
  EnergyReport report;
  const ControllerStats& controller = result.controller;

  const double read_s =
      to_seconds(controller.cell_time_by_op[static_cast<int>(NvmOp::kRead)]);
  const double write_s =
      to_seconds(controller.cell_time_by_op[static_cast<int>(NvmOp::kWrite)]);
  const double erase_s =
      to_seconds(controller.cell_time_by_op[static_cast<int>(NvmOp::kErase)]);
  report.cell_joules = read_s * model.cell_read_watts + write_s * model.cell_write_watts +
                       erase_s * model.cell_erase_watts;

  report.bus_joules = to_seconds(controller.bus_time) * model.bus_watts;

  const double moved = static_cast<double>(result.payload_bytes + result.internal_bytes);
  report.link_joules = moved * model.link_joules_per_byte;
  if (ion_local) report.network_joules = moved * model.network_joules_per_byte;

  report.idle_joules = to_seconds(result.makespan) * model.device_idle_watts;

  report.total_joules = report.cell_joules + report.bus_joules + report.link_joules +
                        report.network_joules + report.idle_joules;
  if (result.payload_bytes > Bytes{}) {
    report.mj_per_mib = report.total_joules * 1e3 /
                        (static_cast<double>(result.payload_bytes) / static_cast<double>(MiB));
  }
  return report;
}

double in_memory_alternative_joules(Bytes dataset_bytes, Bytes traffic_bytes,
                                    Time duration, const EnergyModel& model) {
  const double resident_gib = static_cast<double>(dataset_bytes) / static_cast<double>(GiB);
  const double refresh = resident_gib * model.dram_watts_per_gib * to_seconds(duration);
  const double network =
      static_cast<double>(traffic_bytes) * model.network_joules_per_byte;
  return refresh + network;
}

}  // namespace nvmooc
