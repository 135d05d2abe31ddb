#include "core/trainer.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace meanet::core {

namespace {

/// Shared epoch loop: `step` consumes one (images, labels) batch and
/// returns (batch loss, #correct).
template <typename StepFn>
TrainCurve run_epochs(const data::Dataset& train, const TrainOptions& options, util::Rng& rng,
                      nn::SGD& optimizer, StepFn&& step) {
  if (train.size() == 0) throw std::invalid_argument("training set is empty");
  data::Batcher batcher(train.size(), options.batch_size, rng);
  nn::MultiStepLR schedule(optimizer, options.milestones, options.lr_gamma);
  TrainCurve curve;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double loss_sum = 0.0;
    std::int64_t correct = 0;
    std::int64_t seen = 0;
    for (const std::vector<int>& batch_indices : batcher.epoch()) {
      auto [images, labels] = data::gather_batch(train, batch_indices);
      if (options.augment) data::augment_batch(images, *options.augment, rng);
      optimizer.zero_grad();
      const auto [loss, batch_correct] = step(images, labels);
      optimizer.step();
      loss_sum += static_cast<double>(loss) * static_cast<double>(labels.size());
      correct += batch_correct;
      seen += static_cast<std::int64_t>(labels.size());
    }
    schedule.step();
    EpochStats stats;
    stats.loss = static_cast<float>(loss_sum / static_cast<double>(seen));
    stats.accuracy = static_cast<double>(correct) / static_cast<double>(seen);
    curve.push_back(stats);
  }
  return curve;
}

std::int64_t count_correct(const std::vector<int>& predictions, const std::vector<int>& labels) {
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return correct;
}

}  // namespace

TrainCurve train_classifier(nn::Sequential& net, const data::Dataset& train,
                            const TrainOptions& options, util::Rng& rng) {
  nn::SGD optimizer(net.parameters(), options.sgd);
  return run_epochs(train, options, rng, optimizer,
                    [&](const Tensor& images, const std::vector<int>& labels) {
                      const Tensor logits = net.forward(images, nn::Mode::kTrain);
                      const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
                      net.backward_params(loss.grad);
                      return std::pair<float, std::int64_t>{
                          loss.loss, count_correct(loss.predictions, labels)};
                    });
}

TrainCurve DistributedTrainer::train_main(const data::Dataset& train, const TrainOptions& options,
                                          util::Rng& rng) {
  net_.unfreeze_main();
  nn::SGD optimizer(net_.main_parameters(), options.sgd);
  return run_epochs(train, options, rng, optimizer,
                    [&](const Tensor& images, const std::vector<int>& labels) {
                      const MainForward fwd = net_.forward_main(images, nn::Mode::kTrain);
                      const nn::LossResult loss = nn::softmax_cross_entropy(fwd.logits, labels);
                      net_.backward_main(loss.grad);
                      return std::pair<float, std::int64_t>{
                          loss.loss, count_correct(loss.predictions, labels)};
                    });
}

data::ClassDict DistributedTrainer::select_hard_classes_from_validation(
    const data::Dataset& validation, int num_hard, int batch_size) {
  const MainProfile profile = profile_main(net_, validation, batch_size);
  return make_class_dict(validation.num_classes,
                         select_hard_classes(profile.confusion, num_hard));
}

TrainCurve DistributedTrainer::train_edge_blocks(const data::Dataset& train,
                                                 const data::ClassDict& dict,
                                                 const TrainOptions& options, util::Rng& rng) {
  // Alg. 1 step 5: keep hard-class instances, remap to compact labels.
  const data::Dataset hard_data = data::remap_labels(
      data::filter_by_labels(train, dict.hard_classes()), dict.mapping(), dict.num_hard());
  // Step 6: fix the main block.
  net_.freeze_main();
  nn::SGD optimizer(net_.edge_parameters(), options.sgd);
  return run_epochs(
      hard_data, options, rng, optimizer,
      [&](const Tensor& images, const std::vector<int>& labels) {
        // Steps 7-8: forward through the frozen main (eval statistics),
        // then adaptive + extension; backprop only into the new blocks.
        const MainForward fwd = net_.forward_main(images, nn::Mode::kEval);
        const Tensor y2 = net_.forward_extension(images, fwd.features, nn::Mode::kTrain);
        const nn::LossResult loss = nn::softmax_cross_entropy(y2, labels);
        net_.backward_extension(loss.grad, /*into_main=*/false);
        return std::pair<float, std::int64_t>{loss.loss,
                                              count_correct(loss.predictions, labels)};
      });
}

TrainCurve DistributedTrainer::train_joint(const data::Dataset& train,
                                           const data::ClassDict& dict,
                                           const TrainOptions& options, util::Rng& rng, float w1,
                                           float w2) {
  net_.unfreeze_main();
  nn::SGD optimizer(net_.all_parameters(), options.sgd);
  return run_epochs(
      train, options, rng, optimizer,
      [&](const Tensor& images, const std::vector<int>& labels) {
        const int batch = static_cast<int>(labels.size());
        const MainForward fwd = net_.forward_main(images, nn::Mode::kTrain);
        const nn::LossResult loss1 = nn::softmax_cross_entropy(fwd.logits, labels);

        const Tensor y2 = net_.forward_extension(images, fwd.features, nn::Mode::kTrain);
        // Exit-2 loss over hard-class rows only (easy rows have no label
        // in the compact space).
        const Tensor log_probs = ops::log_softmax(y2);
        const int hard_classes = y2.shape().dim(1);
        Tensor grad_y2(y2.shape());
        double loss2_sum = 0.0;
        int hard_rows = 0;
        for (int n = 0; n < batch; ++n) {
          const int compact = dict.to_hard(labels[static_cast<std::size_t>(n)]);
          if (compact < 0) continue;
          ++hard_rows;
          const float* lp = log_probs.data() + static_cast<std::int64_t>(n) * hard_classes;
          float* g = grad_y2.data() + static_cast<std::int64_t>(n) * hard_classes;
          loss2_sum -= lp[compact];
          for (int c = 0; c < hard_classes; ++c) {
            g[c] = std::exp(lp[c]) - (c == compact ? 1.0f : 0.0f);
          }
        }
        if (hard_rows > 0) grad_y2.scale_(w2 / static_cast<float>(hard_rows));

        // Backprop both losses; extension first (pushes its share into
        // the trunk), then the exit-1 path.
        net_.backward_extension(grad_y2, /*into_main=*/true);
        Tensor grad_y1 = loss1.grad;
        grad_y1.scale_(w1);
        net_.backward_main(grad_y1);

        const float loss2 =
            hard_rows > 0 ? static_cast<float>(loss2_sum / hard_rows) : 0.0f;
        return std::pair<float, std::int64_t>{w1 * loss1.loss + w2 * loss2,
                                              count_correct(loss1.predictions, labels)};
      });
}

TrainCurve DistributedTrainer::train_separate(const data::Dataset& train,
                                              const data::ClassDict& dict,
                                              const TrainOptions& options, util::Rng& rng) {
  // Phase 1: optimize trunk + adaptive + extension for the final exit on
  // hard-class data (the final exit only sees hard classes).
  const data::Dataset hard_data = data::remap_labels(
      data::filter_by_labels(train, dict.hard_classes()), dict.mapping(), dict.num_hard());
  net_.unfreeze_main();
  std::vector<nn::Parameter*> phase1_params = net_.main_trunk().parameters();
  for (nn::Parameter* p : net_.edge_parameters()) phase1_params.push_back(p);
  nn::SGD phase1_opt(phase1_params, options.sgd);
  TrainCurve curve = run_epochs(
      hard_data, options, rng, phase1_opt,
      [&](const Tensor& images, const std::vector<int>& labels) {
        const MainForward fwd = net_.forward_main(images, nn::Mode::kTrain);
        const Tensor y2 = net_.forward_extension(images, fwd.features, nn::Mode::kTrain);
        const nn::LossResult loss = nn::softmax_cross_entropy(y2, labels);
        net_.backward_extension(loss.grad, /*into_main=*/true);
        return std::pair<float, std::int64_t>{loss.loss,
                                              count_correct(loss.predictions, labels)};
      });

  // Phase 2: freeze the convolutional blocks, train exit 1 on all data.
  net_.main_trunk().set_frozen(true);
  net_.adaptive().set_frozen(true);
  net_.extension().set_frozen(true);
  nn::SGD phase2_opt(net_.main_exit().parameters(), options.sgd);
  const TrainCurve phase2 = run_epochs(
      train, options, rng, phase2_opt,
      [&](const Tensor& images, const std::vector<int>& labels) {
        const MainForward fwd = net_.forward_main(images, nn::Mode::kTrain);
        const nn::LossResult loss = nn::softmax_cross_entropy(fwd.logits, labels);
        // Only exit 1 trains; its backward stops at the (frozen) trunk.
        net_.main_exit().backward(loss.grad);
        return std::pair<float, std::int64_t>{loss.loss,
                                              count_correct(loss.predictions, labels)};
      });
  curve.insert(curve.end(), phase2.begin(), phase2.end());
  return curve;
}

}  // namespace meanet::core
