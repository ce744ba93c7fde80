//! Dataset identities, shapes, and difficulty calibration.

/// The six single-sensor datasets of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Handwritten digits (MNIST stand-in): 10 classes, 28 × 28.
    Mnist,
    /// Fashion goods (Fashion-MNIST stand-in): 10 classes, 28 × 28.
    Fashion,
    /// Fruit images (Fruits-360 stand-in): 8 classes, 30 × 30.
    Fruits360,
    /// Animal faces (AFHQ stand-in): 3 classes, 30 × 30.
    Afhq,
    /// Human faces (CelebA subset stand-in): 10 identities, 24 × 24.
    CelebA,
    /// Wi-Fi gestures (Widar 3.0 stand-in): 6 classes, 24 × 32 features.
    Widar3,
}

impl DatasetId {
    /// All six datasets in the paper's Table 1 order.
    pub fn all() -> [DatasetId; 6] {
        [
            DatasetId::Mnist,
            DatasetId::Fashion,
            DatasetId::Fruits360,
            DatasetId::Afhq,
            DatasetId::CelebA,
            DatasetId::Widar3,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Mnist => "MNIST",
            DatasetId::Fashion => "Fashion",
            DatasetId::Fruits360 => "Fruits-360",
            DatasetId::Afhq => "AFHQ",
            DatasetId::CelebA => "CelebA",
            DatasetId::Widar3 => "Widar3.0",
        }
    }

    /// The canonical lower-case name, as recipes and `--dataset` flags
    /// write it.
    pub fn key(self) -> &'static str {
        match self {
            DatasetId::Mnist => "mnist",
            DatasetId::Fashion => "fashion",
            DatasetId::Fruits360 => "fruits",
            DatasetId::Afhq => "afhq",
            DatasetId::CelebA => "celeba",
            DatasetId::Widar3 => "widar",
        }
    }

    /// Parses a dataset name in any case: a [`key`](Self::key) or one of
    /// the aliases `fruits360`, `fruits-360`, `widar3`, `widar3.0`.
    pub fn parse(name: &str) -> Result<DatasetId, String> {
        let found = match name.to_ascii_lowercase().as_str() {
            "fruits360" | "fruits-360" => Some(DatasetId::Fruits360),
            "widar3" | "widar3.0" => Some(DatasetId::Widar3),
            key => DatasetId::all().into_iter().find(|id| id.key() == key),
        };
        found.ok_or_else(|| {
            format!("unknown dataset {name:?} (expected mnist|fashion|fruits|afhq|celeba|widar)")
        })
    }
}

/// How much data to generate: full paper sizes, a balanced default for
/// development, or a minimal smoke-test scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's sample counts (MNIST: 60 000 / 10 000, …).
    Paper,
    /// Capped at 3 000 train / 800 test — minutes, not hours.
    Default,
    /// Capped at 300 train / 120 test — for tests and CI.
    Quick,
}

impl Scale {
    /// The canonical lower-case name, as recipes and `--scale` flags
    /// write it.
    pub fn key(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Default => "default",
            Scale::Quick => "quick",
        }
    }

    /// Parses a scale name ([`key`](Self::key)) in any case.
    pub fn parse(name: &str) -> Result<Scale, String> {
        [Scale::Quick, Scale::Default, Scale::Paper]
            .into_iter()
            .find(|s| s.key().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown scale {name:?} (expected quick|default|paper)"))
    }

    fn cap(self, train: usize, test: usize) -> (usize, usize) {
        match self {
            Scale::Paper => (train, test),
            Scale::Default => (train.min(3000), test.min(800)),
            Scale::Quick => (train.min(300), test.min(120)),
        }
    }
}

/// Full generation parameters for one dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Which dataset this parameterizes.
    pub id: DatasetId,
    /// Number of classes.
    pub classes: usize,
    /// Feature grid width.
    pub width: usize,
    /// Feature grid height.
    pub height: usize,
    /// Training samples (after scaling).
    pub train_samples: usize,
    /// Test samples (after scaling).
    pub test_samples: usize,
    /// Sub-prototypes per class: > 1 makes classes multimodal, which a
    /// linear model cannot carve perfectly but a deep model can — the
    /// source of the ResNet-vs-LNN gap in Table 1.
    pub modes: usize,
    /// Spread of sub-prototypes around the class mean, as a fraction of
    /// typical inter-class distance.
    pub mode_spread: f64,
    /// Prototype contrast: amplitude of the class pattern around the
    /// mid-grey level, 0–255 units. Lower contrast = harder.
    pub contrast: f64,
    /// Fraction of pixels carrying class information (the "stroke"
    /// foreground); the rest is shared background.
    pub foreground: f64,
    /// Per-pixel Gaussian noise, in 0–255 units.
    pub pixel_noise: f64,
    /// Amplitude of smooth per-sample deformation fields, 0–255 units.
    pub deform: f64,
}

impl DatasetSpec {
    /// The calibrated spec for a dataset at a given scale.
    ///
    /// Difficulty constants (modes / spread / noise / deform) are tuned so
    /// the *digital* complex LNN reaches approximately the simulation
    /// accuracy the paper reports for that dataset (Table 1), preserving
    /// the cross-dataset ordering.
    pub fn of(id: DatasetId, scale: Scale) -> DatasetSpec {
        // (classes, w, h, train, test, modes, spread, contrast, fg, noise, deform)
        let (classes, w, h, train, test, modes, spread, contrast, fg, noise, deform) = match id {
            DatasetId::Mnist => (10, 28, 28, 60_000, 10_000, 2, 0.55, 38.0, 0.30, 30.0, 30.0),
            DatasetId::Fashion => (10, 28, 28, 60_000, 10_000, 3, 0.85, 34.0, 0.40, 32.0, 34.0),
            DatasetId::Fruits360 => (8, 30, 30, 25_772, 6_528, 2, 0.75, 27.0, 0.40, 36.0, 40.0),
            DatasetId::Afhq => (3, 30, 30, 14_630, 1_500, 4, 1.40, 21.0, 0.45, 40.0, 46.0),
            DatasetId::CelebA => (10, 24, 24, 220, 80, 2, 0.55, 58.0, 0.30, 24.0, 17.0),
            DatasetId::Widar3 => (6, 32, 24, 2_700, 300, 5, 1.00, 13.0, 0.40, 44.0, 80.0),
        };
        let (train_samples, test_samples) = scale.cap(train, test);
        DatasetSpec {
            id,
            classes,
            width: w,
            height: h,
            train_samples,
            test_samples,
            modes,
            mode_spread: spread,
            contrast,
            foreground: fg,
            pixel_noise: noise,
            deform,
        }
    }

    /// Bytes per sample (one byte per feature).
    pub fn feature_bytes(&self) -> usize {
        self.width * self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table_1() {
        let m = DatasetSpec::of(DatasetId::Mnist, Scale::Paper);
        assert_eq!(m.train_samples, 60_000);
        assert_eq!(m.test_samples, 10_000);
        assert_eq!(m.classes, 10);
        assert_eq!(m.feature_bytes(), 784);

        let a = DatasetSpec::of(DatasetId::Afhq, Scale::Paper);
        assert_eq!(
            (a.train_samples, a.test_samples, a.classes),
            (14_630, 1_500, 3)
        );

        let c = DatasetSpec::of(DatasetId::CelebA, Scale::Paper);
        assert_eq!((c.train_samples, c.test_samples, c.classes), (220, 80, 10));

        let w = DatasetSpec::of(DatasetId::Widar3, Scale::Paper);
        assert_eq!(
            (w.train_samples, w.test_samples, w.classes),
            (2_700, 300, 6)
        );
    }

    #[test]
    fn default_scale_caps_large_sets() {
        let m = DatasetSpec::of(DatasetId::Mnist, Scale::Default);
        assert_eq!(m.train_samples, 3_000);
        // Small sets are untouched.
        let c = DatasetSpec::of(DatasetId::CelebA, Scale::Default);
        assert_eq!(c.train_samples, 220);
    }

    #[test]
    fn quick_scale_is_small() {
        for id in DatasetId::all() {
            let s = DatasetSpec::of(id, Scale::Quick);
            assert!(s.train_samples <= 300);
            assert!(s.test_samples <= 120);
        }
    }

    #[test]
    fn every_dataset_has_multimodal_classes() {
        for id in DatasetId::all() {
            let s = DatasetSpec::of(id, Scale::Paper);
            assert!(s.modes >= 2, "{id:?} must be nonlinear enough");
        }
    }

    #[test]
    fn names_round_trip_and_aliases_parse() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::parse(id.key()), Ok(id));
            assert_eq!(DatasetId::parse(&id.key().to_uppercase()), Ok(id));
        }
        for alias in ["fruits360", "Fruits-360"] {
            assert_eq!(DatasetId::parse(alias), Ok(DatasetId::Fruits360));
        }
        for alias in ["widar3", "Widar3.0"] {
            assert_eq!(DatasetId::parse(alias), Ok(DatasetId::Widar3));
        }
        assert!(DatasetId::parse("imagenet").is_err());
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse(scale.key()), Ok(scale));
        }
        assert_eq!(Scale::parse("QUICK"), Ok(Scale::Quick));
        assert!(Scale::parse("enormous").is_err());
    }
}
