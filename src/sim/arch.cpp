#include "sim/arch.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace microtools::sim {

int MachineConfig::ports(isa::ExecUnit unit) const {
  int count = 1;
  switch (unit) {
    case isa::ExecUnit::Load: count = loadPorts; break;
    case isa::ExecUnit::Store: count = storePorts; break;
    case isa::ExecUnit::Alu: count = aluPorts; break;
    case isa::ExecUnit::FpAdd: count = fpAddPorts; break;
    case isa::ExecUnit::FpMul:
    case isa::ExecUnit::FpDiv: count = fpMulPorts; break;
    case isa::ExecUnit::Branch: count = branchPorts; break;
  }
  return std::max(count, 1);
}

MachineConfig sandyBridgeE31240() {
  MachineConfig m;
  m.name = "sandy_bridge_e31240";
  m.sockets = 1;
  m.coresPerSocket = 4;
  m.nominalGHz = m.coreGHz = 3.30;
  m.uncoreGHz = 3.30;
  m.l1 = {"L1", 32 * 1024, 8, 4};
  m.l2 = {"L2", 256 * 1024, 8, 12};
  m.l3 = {"L3", 8ull * 1024 * 1024, 16, 12.0};
  m.memLatencyNs = 55.0;
  m.memChannelsPerSocket = 2;
  m.channelGBs = 10.6;  // DDR3-1333
  m.fillBuffers = 10;
  m.issueWidth = 4;
  m.loadPorts = 2;  // Sandy Bridge has two load ports
  return m;
}

MachineConfig nehalemX5650DualSocket() {
  MachineConfig m;
  m.name = "nehalem_x5650_2s";
  m.sockets = 2;
  m.coresPerSocket = 6;
  m.nominalGHz = m.coreGHz = 2.67;
  m.uncoreGHz = 2.13;
  m.l1 = {"L1", 32 * 1024, 8, 4};
  m.l2 = {"L2", 256 * 1024, 8, 10};
  m.l3 = {"L3", 12ull * 1024 * 1024, 16, 15.0};
  m.memLatencyNs = 65.0;
  m.memChannelsPerSocket = 3;
  m.channelGBs = 10.6;  // DDR3-1333 (X5650 supports 1333 MT/s)
  m.fillBuffers = 10;
  m.issueWidth = 4;
  m.loadPorts = 1;
  return m;
}

MachineConfig nehalemX7550QuadSocket() {
  MachineConfig m;
  m.name = "nehalem_x7550_4s";
  m.sockets = 4;
  m.coresPerSocket = 8;
  m.nominalGHz = m.coreGHz = 2.00;
  m.uncoreGHz = 1.86;
  m.l1 = {"L1", 32 * 1024, 8, 4};
  m.l2 = {"L2", 256 * 1024, 8, 10};
  m.l3 = {"L3", 18ull * 1024 * 1024, 16, 18.0};
  m.memLatencyNs = 90.0;  // Boxboro chipset adds latency
  // The X7550's memory sits behind serial SMB buffers on the Boxboro
  // platform; effective per-socket streaming bandwidth is famously low
  // compared to the DP Nehalems despite the large capacity.
  m.memChannelsPerSocket = 2;
  m.channelGBs = 3.2;
  m.fillBuffers = 10;
  m.issueWidth = 4;
  m.loadPorts = 1;
  return m;
}

MachineConfig machineByName(const std::string& name) {
  if (name == "sandy_bridge_e31240") return sandyBridgeE31240();
  if (name == "nehalem_x5650_2s") return nehalemX5650DualSocket();
  if (name == "nehalem_x7550_4s") return nehalemX7550QuadSocket();
  throw McError("unknown machine '" + name + "'");
}

std::vector<std::string> machineNames() {
  return {"sandy_bridge_e31240", "nehalem_x5650_2s", "nehalem_x7550_4s"};
}

}  // namespace microtools::sim
