#include "workload.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace fedbench {

const char* ArchKey(Architecture arch) {
  switch (arch) {
    case Architecture::kWfms:
      return "wfms";
    case Architecture::kUdtf:
      return "udtf";
    case Architecture::kJavaUdtf:
      return "java";
  }
  return "?";
}

std::optional<WorkloadConfig> FindWorkload(const std::string& name,
                                           unsigned nproc) {
  WorkloadConfig config;
  config.name = name;
  if (name == "hot_calls") {
    config.kind = WorkloadKind::kHotCalls;
  } else if (name == "bulk_rows") {
    config.kind = WorkloadKind::kBulkRows;
    config.scenario.num_suppliers = 60;
    config.scenario.num_components = 600;
  } else if (name == "tenant_mix") {
    config.kind = WorkloadKind::kTenantMix;
    config.clients = std::clamp(nproc, 1u, 4u);
    config.caching = true;
    config.writes = true;
  } else {
    return std::nullopt;
  }
  return config;
}

std::string Call::Key() const {
  std::string key = function + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) key += ", ";
    key += args[i].ToString();
  }
  return key + ")";
}

namespace {

// Argument domains, indices into CallGenerator::domains_.
enum Domain : size_t {
  kCompName,
  kCompNo,
  kSupplierName,
  kSupplierNo,
  kDiscount,
  kNumDomains,
};

}  // namespace

CallGenerator::CallGenerator(const WorkloadConfig& config,
                             const fedflow::appsys::Scenario& scenario,
                             uint64_t seed, uint64_t client)
    : writes_(config.writes),
      domains_(kNumDomains),
      suppliers_(scenario.suppliers),
      rng_(seed * 0x9e3779b97f4a7c15ULL ^
           (client + 1) * 0xd1b54a32d192ed03ULL) {
  for (const fedflow::appsys::ComponentRecord& c : scenario.components) {
    domains_[kCompName].push_back(Value::Varchar(c.name));
    domains_[kCompNo].push_back(Value::Int(c.comp_no));
  }
  for (const fedflow::appsys::SupplierRecord& s : scenario.suppliers) {
    domains_[kSupplierName].push_back(Value::Varchar(s.name));
    domains_[kSupplierNo].push_back(Value::Int(s.supplier_no));
  }
  for (int32_t discount : {0, 5, 10}) {
    domains_[kDiscount].push_back(Value::Int(discount));
  }
  if (config.kind == WorkloadKind::kBulkRows) {
    AddShape("GetSubCompDiscounts", {kCompNo, kDiscount});
    return;
  }
  // The eight Fig. 5 functions, in order of increasing mapping complexity.
  AddShape("GibKompNr", {kCompName});
  AddShape("GetNumberSupp1234", {kCompNo});
  AddShape("GetSuppQualRelia", {kSupplierNo});
  AddShape("GetSuppQual", {kSupplierName});
  AddShape("GetSubCompDiscounts", {kCompNo, kDiscount});
  AddShape("GetNoSuppComp", {kSupplierName, kCompName});
  AddShape("GetSuppInfo", {kSupplierName});
  AddShape("BuySuppComp", {kSupplierNo, kCompName});
}

void CallGenerator::AddShape(std::string function,
                             std::vector<size_t> domains) {
  ReadShape shape;
  shape.function = std::move(function);
  for (size_t d : domains) {
    Cycle cycle;
    cycle.order.resize(domains_[d].size());
    std::iota(cycle.order.begin(), cycle.order.end(), size_t{0});
    shape.cycles.push_back(std::move(cycle));
  }
  shape.domains = std::move(domains);
  shapes_.push_back(std::move(shape));
}

Call CallGenerator::Next() {
  ++issued_;
  if (writes_ && issued_ % 10 == 0) return WriteCall();
  ReadShape& shape = shapes_[Pick(shapes_.size())];
  Call call;
  call.function = shape.function;
  for (size_t i = 0; i < shape.domains.size(); ++i) {
    Cycle& cycle = shape.cycles[i];
    if (cycle.next == 0) {
      // A fresh seeded permutation per cycle (Fisher-Yates).
      for (size_t k = cycle.order.size(); k > 1; --k) {
        std::swap(cycle.order[k - 1], cycle.order[Pick(k)]);
      }
    }
    call.args.push_back(domains_[shape.domains[i]][cycle.order[cycle.next]]);
    cycle.next = (cycle.next + 1) % cycle.order.size();
  }
  return call;
}

Call CallGenerator::WriteCall() {
  const fedflow::appsys::SupplierRecord& supplier =
      suppliers_[Pick(suppliers_.size())];
  Call call;
  call.function = "ProcureComponent";
  call.write = true;
  call.supplier_no = supplier.supplier_no;
  call.comp_no = domains_[kCompNo][Pick(domains_[kCompNo].size())].AsInt();
  call.amount = static_cast<int32_t>(rng_.Uniform(1, 10));
  call.args = {Value::Varchar(supplier.name), Value::Int(call.comp_no),
               Value::Int(call.amount)};
  return call;
}

std::vector<Call> CallGenerator::ReadDomain() const {
  std::vector<Call> out;
  for (const ReadShape& shape : shapes_) {
    // Odometer over the shape's argument domains.
    std::vector<size_t> at(shape.domains.size(), 0);
    while (true) {
      Call call;
      call.function = shape.function;
      for (size_t i = 0; i < at.size(); ++i) {
        call.args.push_back(domains_[shape.domains[i]][at[i]]);
      }
      out.push_back(std::move(call));
      size_t i = at.size();
      while (i > 0 && ++at[i - 1] == domains_[shape.domains[i - 1]].size()) {
        at[--i] = 0;
      }
      if (i == 0) break;
    }
  }
  return out;
}

}  // namespace fedbench
