#include "isa/disasm.hpp"

#include <sstream>
#include <string>

namespace apcc::isa {

namespace {
std::string reg(std::uint8_t r) {
  std::string name = "r";
  name += std::to_string(r);
  return name;
}
}  // namespace

std::string disassemble(const Instruction& inst, std::uint32_t word_index) {
  const OpcodeInfo& info = opcode_info(inst.opcode);
  std::ostringstream os;
  os << info.mnemonic;
  switch (info.format) {
    case Format::kR:
      if (info.is_indirect) {
        os << ' ' << reg(inst.rs1);
      } else {
        os << ' ' << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << reg(inst.rs2);
      }
      break;
    case Format::kI:
      if (info.is_load || info.is_store) {
        os << ' ' << reg(inst.rd) << ", " << inst.imm << '(' << reg(inst.rs1)
           << ')';
      } else if (inst.opcode == Opcode::kLui) {
        os << ' ' << reg(inst.rd) << ", " << inst.imm;
      } else {
        os << ' ' << reg(inst.rd) << ", " << reg(inst.rs1) << ", " << inst.imm;
      }
      break;
    case Format::kB: {
      const std::int64_t target =
          static_cast<std::int64_t>(word_index) + 1 + inst.imm;
      os << ' ' << reg(inst.rs1) << ", " << reg(inst.rs2) << ", @" << target;
      break;
    }
    case Format::kJ:
      os << " @" << inst.imm;
      break;
    case Format::kNone:
      break;
  }
  return os.str();
}

std::string disassemble(const Program& program) {
  std::ostringstream os;
  for (std::uint32_t i = 0; i < program.word_count(); ++i) {
    if (auto label = program.label_at(i)) {
      os << *label << ":\n";
    }
    os << "  [" << i << "] " << disassemble(program.instruction(i), i) << '\n';
  }
  return os.str();
}

}  // namespace apcc::isa
