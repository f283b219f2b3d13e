"""The SSD-MobileNetV2 detector.

``SSDDetector`` ties together the backbone, optional extra downsampling
feature blocks, per-level prediction heads, anchor generation, target
matching with hard-negative mining, and post-processing (score threshold
+ NMS). Two ready-made specifications are provided:

- :func:`full_scale_spec` -- the paper's 320x240 deployment architecture
  (extra feature levels + dense 3x3 heads), used for the cost analysis of
  Table II;
- :func:`tiny_spec` -- a reduced-resolution sibling with SSDLite
  (depthwise-separable) heads that trains in minutes on a laptop, used
  for the accuracy experiments of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.act import ReLU6
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.functional import conv_output_size
from repro.nn.loss import smooth_l1_loss, softmax, softmax_cross_entropy
from repro.nn.module import Module, Sequential
from repro.seeding import DEFAULT_INIT_SEED
from repro.nn.norm import BatchNorm2d
from repro.vision.anchors import AnchorLevel, generate_anchors
from repro.vision.boxcodec import BoxCodec
from repro.vision.boxes import center_to_corner
from repro.vision.matching import hard_negative_mask, match_anchors
from repro.vision.mobilenetv2 import (
    MOBILENETV2_CONFIG,
    TINY_CONFIG,
    MobileNetV2Backbone,
    make_divisible,
)
from repro.vision.nms import non_max_suppression


@dataclass(frozen=True)
class SSDSpec:
    """Architecture specification of one SSD variant.

    Attributes:
        input_hw: input image ``(height, width)`` in pixels.
        num_classes: foreground classes (2: bottle, tin can).
        width_mult: MobileNetV2 alpha.
        backbone_config: stage table passed to the backbone.
        stem_channels: unscaled stem width.
        last_channels: unscaled final-conv width.
        extras: ``(mid_channels, out_channels)`` of each extra stride-2
            feature block appended after the backbone (unscaled; scaled by
            alpha like everything else).
        head_type: ``"dense"`` (standard SSD 3x3 heads) or ``"ssdlite"``
            (depthwise-separable heads).
        anchor_scales: one scale per detection head (backbone taps first,
            then extras).
        aspect_ratios: shared anchor aspect ratios.
        name: human-readable variant name.
    """

    input_hw: Tuple[int, int]
    num_classes: int = 2
    width_mult: float = 1.0
    backbone_config: Tuple[Tuple[int, int, int, int], ...] = MOBILENETV2_CONFIG
    stem_channels: int = 32
    last_channels: int = 1280
    extras: Tuple[Tuple[int, int], ...] = ()
    head_type: str = "ssdlite"
    anchor_scales: Tuple[float, ...] = (0.25, 0.55)
    aspect_ratios: Tuple[float, ...] = (1.0, 0.5, 2.0)
    name: str = "SSD-MbV2"

    def __post_init__(self) -> None:
        if self.head_type not in ("dense", "ssdlite"):
            raise ShapeError(f"unknown head type {self.head_type!r}")


def full_scale_spec(width_mult: float = 1.0, num_classes: int = 2) -> SSDSpec:
    """The paper's deployed architecture at QVGA resolution."""
    return SSDSpec(
        input_hw=(240, 320),
        num_classes=num_classes,
        width_mult=width_mult,
        backbone_config=MOBILENETV2_CONFIG,
        stem_channels=32,
        last_channels=1280,
        extras=((256, 512), (128, 256)),
        head_type="dense",
        anchor_scales=(0.2, 0.45, 0.7, 0.9),
        name=f"SSD-MbV2-{width_mult:g}",
    )


def tiny_spec(width_mult: float = 1.0, num_classes: int = 2) -> SSDSpec:
    """Laptop-scale sibling used for the training experiments (Table I)."""
    return SSDSpec(
        input_hw=(48, 64),
        num_classes=num_classes,
        width_mult=width_mult,
        backbone_config=TINY_CONFIG,
        stem_channels=16,
        last_channels=64,
        extras=(),
        head_type="ssdlite",
        anchor_scales=(0.3, 0.65),
        name=f"SSD-MbV2-tiny-{width_mult:g}",
    )


@dataclass(frozen=True)
class Detection:
    """One detected object in one image.

    Attributes:
        box: ``(xmin, ymin, xmax, ymax)`` in normalized [0, 1] coordinates.
        label: zero-based class id.
        score: confidence in [0, 1].
    """

    box: Tuple[float, float, float, float]
    label: int
    score: float


def _extra_block(in_c: int, mid_c: int, out_c: int, rng: np.random.Generator) -> Sequential:
    """SSDLite-style extra feature block: pw -> dw(s2) -> pw, all BN+ReLU6."""
    return Sequential(
        Conv2d(in_c, mid_c, 1, bias=False, rng=rng),
        BatchNorm2d(mid_c),
        ReLU6(),
        DepthwiseConv2d(mid_c, 3, stride=2, padding=1, bias=False, rng=rng),
        BatchNorm2d(mid_c),
        ReLU6(),
        Conv2d(mid_c, out_c, 1, bias=False, rng=rng),
        BatchNorm2d(out_c),
        ReLU6(),
    )


class _PredictionHead(Module):
    """Per-level predictor emitting ``(N, cells * A, outputs)``.

    ``head_type="dense"`` is a single 3x3 convolution (classic SSD);
    ``"ssdlite"`` is a depthwise-separable stack.
    """

    def __init__(
        self,
        in_channels: int,
        anchors_per_cell: int,
        outputs_per_anchor: int,
        head_type: str,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.outputs_per_anchor = outputs_per_anchor
        self.anchors_per_cell = anchors_per_cell
        out_c = anchors_per_cell * outputs_per_anchor
        if head_type == "dense":
            self.net = Sequential(
                Conv2d(in_channels, out_c, 3, padding=1, bias=True, rng=rng)
            )
        else:
            self.net = Sequential(
                DepthwiseConv2d(in_channels, 3, stride=1, padding=1, bias=False, rng=rng),
                BatchNorm2d(in_channels),
                ReLU6(),
                Conv2d(in_channels, out_c, 1, bias=True, rng=rng),
            )
        self._feat_shape: Optional[Tuple[int, ...]] = None

    def forward(self, feat: np.ndarray) -> np.ndarray:
        out = self.net(feat)
        n, _, fh, fw = out.shape
        self._feat_shape = (n, fh, fw)
        out = out.reshape(n, self.anchors_per_cell, self.outputs_per_anchor, fh, fw)
        # -> (N, fh, fw, A, O): cells row-major, anchors interleaved per cell
        # to match the anchor generator's layout.
        out = out.transpose(0, 3, 4, 1, 2)
        return out.reshape(n, fh * fw * self.anchors_per_cell, self.outputs_per_anchor)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._feat_shape is None:
            raise ShapeError("backward called before forward")
        n, fh, fw = self._feat_shape
        g = grad_out.reshape(n, fh, fw, self.anchors_per_cell, self.outputs_per_anchor)
        g = g.transpose(0, 3, 4, 1, 2).reshape(
            n, self.anchors_per_cell * self.outputs_per_anchor, fh, fw
        )
        return self.net.backward(g)


class SSDDetector(Module):
    """Full detector: backbone + extras + heads + codec + post-processing.

    Args:
        spec: architecture specification.
        rng: weight-initializer RNG.
    """

    def __init__(self, spec: SSDSpec, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
        self.spec = spec
        self.codec = BoxCodec()
        self.backbone = MobileNetV2Backbone(
            width_mult=spec.width_mult,
            in_channels=3,
            config=spec.backbone_config,
            stem_channels=spec.stem_channels,
            last_channels=spec.last_channels,
            rng=rng,
        )
        level_channels = self.backbone.tap_channels()
        self._extra_names: List[str] = []
        c_in = level_channels[-1]
        for i, (mid, out) in enumerate(spec.extras):
            mid_c = make_divisible(mid * min(spec.width_mult, 1.0) if spec.width_mult < 1.0 else mid)
            out_c = make_divisible(out * min(spec.width_mult, 1.0) if spec.width_mult < 1.0 else out)
            block = _extra_block(c_in, mid_c, out_c, rng)
            name = f"extra{i}"
            self.register_child(name, block)
            self._extra_names.append(name)
            level_channels.append(out_c)
            c_in = out_c
        self.level_channels = level_channels

        if len(spec.anchor_scales) != len(level_channels):
            raise ShapeError(
                f"{len(spec.anchor_scales)} anchor scales for "
                f"{len(level_channels)} feature levels"
            )
        self.feature_shapes = self._trace_feature_shapes()
        self.anchor_levels = tuple(
            AnchorLevel(
                feature_shape=shape,
                scale=scale,
                aspect_ratios=spec.aspect_ratios,
            )
            for shape, scale in zip(self.feature_shapes, spec.anchor_scales)
        )
        self.anchors_center = generate_anchors(self.anchor_levels)
        self.anchors_corner = center_to_corner(self.anchors_center)
        a_per_cell = len(spec.aspect_ratios)
        self._head_names_conf: List[str] = []
        self._head_names_loc: List[str] = []
        for i, ch in enumerate(level_channels):
            conf = _PredictionHead(ch, a_per_cell, spec.num_classes + 1, spec.head_type, rng)
            loc = _PredictionHead(ch, a_per_cell, 4, spec.head_type, rng)
            self.register_child(f"conf_head{i}", conf)
            self.register_child(f"loc_head{i}", loc)
            self._head_names_conf.append(f"conf_head{i}")
            self._head_names_loc.append(f"loc_head{i}")

    # -- shape tracing -----------------------------------------------------

    def _trace_feature_shapes(self) -> List[Tuple[int, int]]:
        """Each feature level's (fh, fw), computed without running data."""
        h, w = self.spec.input_hw
        h = conv_output_size(h, 3, 2, 1)  # stem
        w = conv_output_size(w, 3, 2, 1)
        shapes = []
        block_idx = 0
        for t, c, n, s in self.spec.backbone_config:
            for i in range(n):
                stride = s if i == 0 else 1
                if stride == 2:
                    h = conv_output_size(h, 3, 2, 1)
                    w = conv_output_size(w, 3, 2, 1)
                if block_idx in self.backbone.tap_indices:
                    shapes.append((h, w))
                block_idx += 1
        shapes.append((h, w))  # final backbone conv keeps the spatial size
        for _ in self.spec.extras:
            h = conv_output_size(h, 3, 2, 1)
            w = conv_output_size(w, 3, 2, 1)
            shapes.append((h, w))
        return shapes

    @property
    def num_anchors(self) -> int:
        return self.anchors_center.shape[0]

    def forward_features(self, images: np.ndarray) -> List[np.ndarray]:
        """All head-attached feature maps (backbone taps, then extras)."""
        feats = self.backbone.forward_features(images)
        out = feats[-1]
        for name in self._extra_names:
            out = self._children[name](out)
            feats.append(out)
        return feats

    # -- forward / backward --------------------------------------------------

    def forward(self, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw predictions.

        Args:
            images: ``(N, 3, H, W)`` batch matching ``spec.input_hw``.

        Returns:
            ``(conf_logits, loc_offsets)`` with shapes
            ``(N, A, num_classes + 1)`` and ``(N, A, 4)``.
        """
        n, c, h, w = images.shape
        if (h, w) != self.spec.input_hw or c != 3:
            raise ShapeError(
                f"expected (N, 3, {self.spec.input_hw[0]}, {self.spec.input_hw[1]}), "
                f"got {images.shape}"
            )
        feats = self.forward_features(images)
        confs, locs = [], []
        for i, feat in enumerate(feats):
            confs.append(self._children[self._head_names_conf[i]](feat))
            locs.append(self._children[self._head_names_loc[i]](feat))
        return np.concatenate(confs, axis=1), np.concatenate(locs, axis=1)

    def backward(self, grads: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Backward from gradients on (conf_logits, loc_offsets)."""
        grad_conf, grad_loc = grads
        level_sizes = [lvl.num_anchors for lvl in self.anchor_levels]
        feat_grads = []
        start = 0
        for i, size in enumerate(level_sizes):
            gc = grad_conf[:, start : start + size]
            gl = grad_loc[:, start : start + size]
            g_feat = self._children[self._head_names_conf[i]].backward(gc)
            g_feat = g_feat + self._children[self._head_names_loc[i]].backward(gl)
            feat_grads.append(g_feat)
            start += size
        # Extras backward-chain into the last backbone feature gradient.
        n_backbone = len(self.backbone.tap_indices) + 1
        grad = None
        for i in range(len(self._extra_names) - 1, -1, -1):
            g = feat_grads[n_backbone + i]
            if grad is not None:
                g = g + grad
            grad = self._children[self._extra_names[i]].backward(g)
        backbone_grads = feat_grads[:n_backbone]
        if grad is not None:
            backbone_grads[-1] = backbone_grads[-1] + grad
        return self.backbone.backward_features(backbone_grads)

    # -- training ---------------------------------------------------------------

    def compute_loss(
        self,
        images: np.ndarray,
        gt_boxes: Sequence[np.ndarray],
        gt_labels: Sequence[np.ndarray],
        neg_pos_ratio: float = 3.0,
        loc_weight: float = 1.0,
    ) -> Tuple[float, Tuple[np.ndarray, np.ndarray]]:
        """SSD multibox loss and its gradient w.r.t. the raw predictions.

        Args:
            images: input batch.
            gt_boxes: per-image ``(G_i, 4)`` normalized corner boxes.
            gt_labels: per-image ``(G_i,)`` zero-based class ids.
            neg_pos_ratio: hard-negative mining ratio.
            loc_weight: weight of the localization term.

        Returns:
            ``(loss, (grad_conf, grad_loc))`` ready for :meth:`backward`.
        """
        conf, loc = self.forward(images)
        n = images.shape[0]
        if len(gt_boxes) != n or len(gt_labels) != n:
            raise ShapeError("batch size mismatch between images and targets")
        total = 0.0
        grad_conf = np.zeros_like(conf)
        grad_loc = np.zeros_like(loc)
        for i in range(n):
            match = match_anchors(self.anchors_corner, gt_boxes[i], gt_labels[i])
            labels = match.labels
            n_pos = max(match.num_positives, 1)

            probs = softmax(conf[i])
            background_loss = -np.log(np.clip(probs[:, 0], 1e-12, None))
            cls_mask = hard_negative_mask(labels, background_loss, neg_pos_ratio)
            weights = cls_mask.astype(np.float64)
            weights[labels < 0] = 0.0
            ce_labels = np.clip(labels, 0, None)
            loss_c, g_c = softmax_cross_entropy(
                conf[i], ce_labels, weights=weights, normalizer=float(n_pos)
            )
            pos = match.positive_mask
            loc_targets = self.codec.encode(match.matched_boxes, self.anchors_center)
            loc_w = np.repeat(pos.astype(np.float64)[:, None], 4, axis=1)
            loss_l, g_l = smooth_l1_loss(
                loc[i], loc_targets, weights=loc_w, normalizer=float(n_pos)
            )
            total += loss_c + loc_weight * loss_l
            grad_conf[i] = g_c
            grad_loc[i] = loc_weight * g_l
        total /= n
        grad_conf /= n
        grad_loc /= n
        return total, (grad_conf, grad_loc)

    # -- inference ---------------------------------------------------------------

    def predict(
        self,
        images: np.ndarray,
        score_threshold: float = 0.4,
        nms_iou: float = 0.5,
        max_detections: int = 20,
    ) -> List[List[Detection]]:
        """Detections per image after score filtering and per-class NMS."""
        conf, loc = self.forward(images)
        return self.postprocess(
            conf, loc, score_threshold=score_threshold, nms_iou=nms_iou,
            max_detections=max_detections,
        )

    def postprocess(
        self,
        conf: np.ndarray,
        loc: np.ndarray,
        score_threshold: float = 0.4,
        nms_iou: float = 0.5,
        max_detections: int = 20,
    ) -> List[List[Detection]]:
        """Turn raw predictions into final detections."""
        results: List[List[Detection]] = []
        for i in range(conf.shape[0]):
            probs = softmax(conf[i])
            boxes = self.codec.decode(loc[i], self.anchors_center)
            detections: List[Detection] = []
            for cls in range(self.spec.num_classes):
                scores = probs[:, cls + 1]
                keep = scores >= score_threshold
                if not np.any(keep):
                    continue
                cls_boxes = boxes[keep]
                cls_scores = scores[keep]
                chosen = non_max_suppression(
                    cls_boxes, cls_scores, iou_threshold=nms_iou,
                    max_outputs=max_detections,
                )
                for idx in chosen:
                    detections.append(
                        Detection(
                            box=tuple(float(v) for v in cls_boxes[idx]),
                            label=cls,
                            score=float(cls_scores[idx]),
                        )
                    )
            detections.sort(key=lambda d: -d.score)
            results.append(detections[:max_detections])
        return results
