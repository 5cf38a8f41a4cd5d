"""Listenable audio explanations via attribution in the latent space of an audio autoencoder."""

from .audio import AudioClip, generate_noise_clip, reconstruction_snr, wav_read, wav_write
from .codec import CodecConfig, CodecTrainConfig, LatentGrid, decode, encode, train_autoencoder
from .classifier import ClassifierConfig, classify, evaluate_accuracy, train_classifier
from .attribution import (
    AttributionMap,
    integrated_gradients_input,
    integrated_gradients_latent,
    random_attribution,
)
from .masking import (
    SelectionMask,
    apply_mask_keep,
    apply_mask_remove,
    make_base_latent,
    mask_input_space,
    select_top,
    synthesize_explanation,
)
from .data import SyntheticDatasetSpec, generate_dataset
from .evalharness import (
    EvalReport,
    ExplainerModels,
    accuracy_drop,
    build_models,
    confusion_after_removal,
    fidelity_agreement,
)

__version__ = "0.1.0"
