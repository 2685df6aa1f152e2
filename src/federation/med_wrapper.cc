#include "federation/med_wrapper.h"

namespace fedflow::federation {

namespace {

/// Adapts one wrapper function to the FDBS table-function interface.
class WrapperUdtf : public fdbs::TableFunction {
 public:
  WrapperUdtf(std::shared_ptr<ForeignFunctionWrapper> wrapper,
              ForeignFunctionWrapper::ForeignFunction descriptor)
      : wrapper_(std::move(wrapper)), descriptor_(std::move(descriptor)) {}

  const std::string& name() const override { return descriptor_.name; }
  const std::vector<Column>& params() const override {
    return descriptor_.params;
  }
  const Schema& result_schema() const override {
    return descriptor_.result_schema;
  }

  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    fdbs::ExecContext& ctx,
                                    size_t batch_size) override {
    sim::RetryLoop retry(wrapper_->retry_policy(), ctx.clock, ctx.metrics,
                         descriptor_.name);
    while (true) {
      Result<RowSourcePtr> out =
          wrapper_->ExecuteStream(descriptor_.name, args, ctx, batch_size);
      if (out.ok()) return CoerceToDeclared(std::move(*out));
      if (!retry.ShouldRetry(out.status())) return out.status();
      FEDFLOW_RETURN_NOT_OK(retry.Backoff());
    }
  }

 private:
  /// Coerces each pulled batch to the declared result schema.
  RowSourcePtr CoerceToDeclared(RowSourcePtr source) const {
    std::shared_ptr<RowSource> inner(std::move(source));
    Schema target = descriptor_.result_schema;
    return MakeGeneratorSource(
        descriptor_.result_schema, [inner, target]() -> Result<RowBatch> {
          FEDFLOW_ASSIGN_OR_RETURN(RowBatch raw, inner->Next());
          if (raw.empty()) return raw;
          Table coerced(target);
          for (Row& r : raw.rows) {
            FEDFLOW_RETURN_NOT_OK(coerced.AppendRow(std::move(r)));
          }
          RowBatch batch;
          batch.rows = std::move(coerced.mutable_rows());
          return batch;
        });
  }

  std::shared_ptr<ForeignFunctionWrapper> wrapper_;
  ForeignFunctionWrapper::ForeignFunction descriptor_;
};

}  // namespace

Status RegisterWrapperFunction(
    fdbs::Database* db, std::shared_ptr<ForeignFunctionWrapper> wrapper,
    ForeignFunctionWrapper::ForeignFunction function) {
  return db->catalog().RegisterTableFunction(
      std::make_shared<WrapperUdtf>(std::move(wrapper), std::move(function)));
}

}  // namespace fedflow::federation
