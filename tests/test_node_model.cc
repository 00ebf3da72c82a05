/**
 * @file
 * NodeModel / NodeClassifier: layer chaining, stats aggregation,
 * complexity scaling (Fig. 3), and end-to-end classifier behaviour.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aca_trainer.h"
#include "core/memory_profile.h"
#include "core/node_model.h"
#include "nn/optimizer.h"
#include "workloads/synthetic_images.h"

namespace enode {
namespace {

IvpOptions
quickOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-3;
    opts.initialDt = 0.2;
    return opts;
}

TEST(NodeModel, ForwardChainsLayers)
{
    Rng rng(1);
    auto model = NodeModel::makeMlp(3, 4, 8, 1, rng);
    EXPECT_EQ(model->numLayers(), 3u);
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    FixedFactorController ctrl;
    auto fwd = model->forward(x, ButcherTableau::rk23(), ctrl,
                              quickOptions());
    EXPECT_EQ(fwd.layers.size(), 3u);
    EXPECT_EQ(fwd.output.shape(), x.shape());
    // Total stats aggregate the per-layer stats.
    std::uint64_t pts = 0;
    for (const auto &layer : fwd.layers)
        pts += layer.stats.evalPoints;
    EXPECT_EQ(fwd.totalStats.evalPoints, pts);
    EXPECT_GT(pts, 0u);
}

TEST(NodeModel, MakeConvBuildsChannelCountsNotAMultipleOfEight)
{
    // GroupNorm needs groups | channels; 10, 12 and 20 channels used to
    // ask for 8 groups and panic at construction.
    for (std::size_t channels : {10u, 12u, 20u}) {
        Rng rng(5);
        auto model = NodeModel::makeConv(1, channels, 1, rng);
        Tensor x = Tensor::randn(Shape{channels, 5, 5}, rng, 0.5f);
        FixedFactorController ctrl;
        auto fwd = model->forward(x, ButcherTableau::rk23(), ctrl,
                                  quickOptions());
        EXPECT_EQ(fwd.output.shape(), x.shape()) << channels << " channels";
        EXPECT_TRUE(fwd.output.isFinite()) << channels << " channels";
    }
}

TEST(NodeModel, ComplexityScalesWithLayers)
{
    // Fig. 3: forward complexity is O(N * n_eval * n_try * s).
    Rng rng(2);
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    auto one = NodeModel::makeMlp(1, 4, 8, 1, rng);
    auto four = NodeModel::makeMlp(4, 4, 8, 1, rng);
    FixedFactorController c1, c4;
    auto f1 = one->forward(x, ButcherTableau::rk23(), c1, quickOptions());
    auto f4 = four->forward(x, ButcherTableau::rk23(), c4, quickOptions());
    EXPECT_GT(f4.totalStats.fEvals, 2 * f1.totalStats.fEvals);
}

TEST(NodeModel, ParamSlotsAreNamedPerLayer)
{
    Rng rng(3);
    auto model = NodeModel::makeMlp(2, 3, 4, 1, rng);
    auto slots = model->paramSlots();
    ASSERT_FALSE(slots.empty());
    EXPECT_EQ(slots.front().name.substr(0, 5), "node0");
    EXPECT_EQ(slots.back().name.substr(0, 5), "node1");
    EXPECT_GT(model->paramCount(), 0u);
    model->zeroGrad();
    for (auto &slot : slots)
        EXPECT_DOUBLE_EQ(slot.grad->l2Norm(), 0.0);
}

TEST(NodeClassifier, ProducesLogitsAndTrains)
{
    Rng rng(5);
    // Tiny model on tiny synthetic images: 2 classes for speed.
    SyntheticImageConfig img_cfg;
    img_cfg.channels = 1;
    img_cfg.height = 8;
    img_cfg.width = 8;
    img_cfg.numClasses = 2;
    img_cfg.noiseStddev = 0.05f;
    SyntheticImageDataset data(img_cfg, 23);

    NodeClassifier model(1, 4, 1, 1, 2, rng);
    Adam opt(model.paramSlots(), 3e-3);
    FixedFactorController ctrl;
    IvpOptions opts = quickOptions();

    auto accuracy_of = [&](int n) {
        int correct = 0;
        for (int i = 0; i < n; i++) {
            auto sample = data.sample(static_cast<std::size_t>(i % 2));
            auto result = model.forward(sample.image,
                                        ButcherTableau::rk23(), ctrl, opts);
            correct += argmax(result.logits) == sample.label;
        }
        return static_cast<double>(correct) / n;
    };

    double first_loss = 0.0, loss = 0.0;
    for (int iter = 0; iter < 30; iter++) {
        auto sample = data.sample(static_cast<std::size_t>(iter % 2));
        opt.zeroGrad();
        auto step =
            classifierTrainStep(model, sample.image, sample.label,
                                ButcherTableau::rk23(), ctrl, opts);
        if (iter == 0)
            first_loss = step.loss;
        loss = 0.9 * loss + 0.1 * step.loss;
        opt.clipGradNorm(5.0);
        opt.step();
        EXPECT_GT(step.forwardStats.fEvals, 0u);
        EXPECT_GT(step.backwardStats.backwardSteps, 0u);
    }
    EXPECT_LT(loss, first_loss) << "classifier loss did not improve";
    EXPECT_GE(accuracy_of(10), 0.5);
}

TEST(MemoryProfile, NodeVsResnetShapes)
{
    // Fig. 4(b): NODE inference a few times more memory than ResNet;
    // NODE training one to two orders of magnitude more accesses.
    NodeWorkloadProfile profile;
    profile.nEval = 16;
    profile.nTry = 2.5;
    const auto node_inf = nodeInferenceFootprint(profile);
    const auto node_train = nodeTrainingFootprint(profile);
    const auto res_inf = resnetInferenceFootprint(100);
    const auto res_train = resnetTrainingFootprint(100);

    const double size_ratio = node_inf.sizeMaps / res_inf.sizeMaps;
    EXPECT_GT(size_ratio, 2.0);
    EXPECT_LT(size_ratio, 5.0); // paper: 2.5x

    const double access_ratio =
        node_train.accessMaps / res_train.accessMaps;
    EXPECT_GT(access_ratio, 10.0);
    EXPECT_LT(access_ratio, 100.0); // paper: 41.5x

    // Training must cost more than inference on both sides.
    EXPECT_GT(node_train.accessMaps, node_inf.accessMaps);
    EXPECT_GT(res_train.accessMaps, res_inf.accessMaps);
}

} // namespace
} // namespace enode
