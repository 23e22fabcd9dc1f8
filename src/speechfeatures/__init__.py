"""Speech features extraction toolbox.

Spectro-temporal features (spectrogram, mel filterbank, MFCC, PLP with
optional RASTA filtering), correlation-based pitch tracking with Viterbi
smoothing and post-processing, delta / CMVN / VAD post-processors,
unsupervised per-speaker frequency warp normalization backed by a diagonal
GMM, a features data model with CSV and binary serialization, a batch
extraction pipeline with a command line front end, and evaluation metrics
(pitch MAE/GER, DTW-cosine ABX discrimination).

Importing the package pins the BLAS to one thread per process: extraction
runs in parallel through `--njobs` worker processes, and a BLAS thread per
CPU in each of them would only oversubscribe the cores. A variable the
caller has already set is kept; a program that imports numpy before this
package keeps the BLAS threads numpy started with.
"""

import os

# read by the BLAS libraries numpy links against when numpy is first loaded
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                         "OMP_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

from .audio import (Audio, Utterance, Utterances, WavChannelError,
                    WavEncodingError, WavFormatError, load_wav,
                    parse_utterances, resample, segment, write_wav)
from .features import (Features, FeaturesCollection, FeaturesFormatError,
                       concatenate, load_collection, save_collection)
from .framing import FrameOptions, extract_frames, num_frames, window_function
from .spectral import (FilterbankOptions, MelBanks, MelOptions, MfccOptions,
                       PlpOptions, SpectrogramOptions, compute_mel_banks,
                       filterbank, inverse_mel, mel, mfcc, plp, spectrogram,
                       vtln_warp_freq)
from .pitch import (PitchOptions, PostPitchOptions, estimate_pitch,
                    nccf_to_pov, postprocess_pitch)
from .postproc import (CmvnOptions, DeltaOptions, VadOptions, cmvn_apply,
                       delta, vad)
from .speaker import (DiagGmm, UbmOptions, VtlnOptions, estimate_warps,
                      load_gmm, load_warps, save_gmm, save_warps, select_warp,
                      train_ubm)
from .pipeline import (ExtractionError, PipelineConfig, default_config,
                       extract_features, read_config, write_config)
from .evaluate import (AbxTriplet, PitchEval, abx_score, dtw_cosine, ger,
                       load_triplets, mae)

__version__ = "0.1.0"
